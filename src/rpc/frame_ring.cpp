#include "rpc/frame_ring.hpp"

#include <chrono>

namespace iofa::rpc {

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

FrameRing::FrameRing(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(capacity);
  mask_ = cap - 1;
  slots_ = std::vector<Slot>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    slots_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool FrameRing::try_push_locked(std::vector<std::byte>& frame) {
  std::uint64_t pos = tail_.load(std::memory_order_relaxed);
  Slot* slot = nullptr;
  for (;;) {
    slot = &slots_[pos & mask_];
    const std::uint64_t seq = slot->seq.load(std::memory_order_acquire);
    const std::int64_t dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (dif == 0) {
      if (tail_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        break;
      }
    } else if (dif < 0) {
      return false;  // consumer has not recycled this slot yet: full
    } else {
      pos = tail_.load(std::memory_order_relaxed);
    }
  }
  slot->frame = std::move(frame);
  // seq_cst store, then seq_cst load of parked_, paired with pop_wait:
  // either the consumer's re-check sees this frame or this push sees
  // the consumer parked (see fwd::CompletionRing::try_push).
  slot->seq.store(pos + 1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst)) {
    MutexLock lk(wake_mu_);
    wake_cv_.notify_one();
  }
  return true;
}

bool FrameRing::push(std::vector<std::byte> frame) {
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (try_push_locked(frame)) return true;
    // Full: park until the consumer recycles a slot. The re-check under
    // the lock pairs with the notify in pop_wait(), so a recycle landing
    // between the failed push and the wait cannot be missed.
    UniqueLock lk(producer_mu_);
    if (closed_.load(std::memory_order_acquire)) return false;
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    const std::uint64_t seq =
        slots_[pos & mask_].seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos) < 0) {
      producer_cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
  }
}

std::optional<std::vector<std::byte>> FrameRing::try_pop() {
  const std::uint64_t pos = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[pos & mask_];
  const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
  if (static_cast<std::int64_t>(seq) -
          static_cast<std::int64_t>(pos + 1) < 0) {
    return std::nullopt;  // next slot not published yet
  }
  std::vector<std::byte> out = std::move(slot.frame);
  slot.frame.clear();
  slot.seq.store(pos + mask_ + 1, std::memory_order_release);
  head_.store(pos + 1, std::memory_order_relaxed);
  {
    MutexLock lk(producer_mu_);
    producer_cv_.notify_all();
  }
  return out;
}

std::optional<std::vector<std::byte>> FrameRing::pop_wait() {
  for (;;) {
    if (auto frame = try_pop()) return frame;
    if (closed_.load(std::memory_order_acquire)) {
      // Closed: drain whatever was published before the close, then
      // report end-of-stream.
      if (auto frame = try_pop()) return frame;
      return std::nullopt;
    }
    parked_.store(true, std::memory_order_seq_cst);
    {
      UniqueLock lk(wake_mu_);
      const std::uint64_t pos = head_.load(std::memory_order_relaxed);
      const std::uint64_t seq =
          slots_[pos & mask_].seq.load(std::memory_order_seq_cst);
      const bool published = static_cast<std::int64_t>(seq) -
                                 static_cast<std::int64_t>(pos + 1) >= 0;
      if (!published && !closed_.load(std::memory_order_acquire)) {
        wake_cv_.wait_for(lk, std::chrono::milliseconds(1));
      }
    }
    parked_.store(false, std::memory_order_release);
  }
}

void FrameRing::close() {
  closed_.store(true, std::memory_order_release);
  {
    MutexLock lk(wake_mu_);
    wake_cv_.notify_all();
  }
  MutexLock lk(producer_mu_);
  producer_cv_.notify_all();
}

}  // namespace iofa::rpc
