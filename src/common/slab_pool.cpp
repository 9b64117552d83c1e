#include "common/slab_pool.hpp"

#include <algorithm>
#include <cassert>

namespace iofa {

namespace {
std::atomic<std::uint64_t> g_payload_heap_allocs{0};
}  // namespace

std::uint64_t payload_heap_allocs() { return g_payload_heap_allocs.load(); }

// --- Payload ---------------------------------------------------------------

Payload::Payload(const Payload& other)
    : pool_(other.pool_),
      slot_(other.slot_),
      data_(other.data_),
      size_(other.size_),
      owned_(other.owned_) {
  if (pool_) pool_->add_ref(slot_);
}

Payload& Payload::operator=(const Payload& other) {
  if (this == &other) return *this;
  // Take the new reference before dropping the old one so self-aliasing
  // slabs (two handles to one slot) never hit refcount zero in between.
  if (other.pool_) other.pool_->add_ref(other.slot_);
  reset();
  pool_ = other.pool_;
  slot_ = other.slot_;
  data_ = other.data_;
  size_ = other.size_;
  owned_ = other.owned_;
  return *this;
}

Payload::Payload(Payload&& other) noexcept
    : pool_(other.pool_),
      slot_(other.slot_),
      data_(other.data_),
      size_(other.size_),
      owned_(std::move(other.owned_)) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

Payload& Payload::operator=(Payload&& other) noexcept {
  if (this == &other) return *this;
  reset();
  pool_ = other.pool_;
  slot_ = other.slot_;
  data_ = other.data_;
  size_ = other.size_;
  owned_ = std::move(other.owned_);
  other.pool_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

void Payload::reset() {
  if (pool_) pool_->release(slot_);
  pool_ = nullptr;
  owned_.reset();
  data_ = nullptr;
  size_ = 0;
}

Payload Payload::heap(std::size_t size) {
  Payload p;
  if (size == 0) return p;
  g_payload_heap_allocs.fetch_add(1);
  p.owned_ = std::make_shared<std::vector<std::byte>>(size);
  p.data_ = p.owned_->data();
  p.size_ = size;
  return p;
}

Payload Payload::wrap(std::shared_ptr<std::vector<std::byte>> buf) {
  Payload p;
  if (!buf || buf->empty()) return p;
  p.data_ = buf->data();
  p.size_ = buf->size();
  p.owned_ = std::move(buf);
  return p;
}

// --- SlabPool --------------------------------------------------------------

SlabPool::SlabPool(SlabPoolConfig config) {
  classes_.reserve(config.classes.size());
  for (const auto& cc : config.classes) {
    assert(cc.slab_bytes > 0 && cc.count > 0);
    // Slot encoding caps each class at 2^20 slabs and the pool at 4096
    // classes; both are far past any sane configuration.
    assert(cc.count < (1u << 20));
    auto sc = std::make_unique<SizeClass>();
    sc->slab_bytes = cc.slab_bytes;
    sc->count = cc.count;
    sc->refs = std::make_unique<std::atomic<std::uint32_t>[]>(cc.count);
    for (std::size_t i = 0; i < cc.count; ++i) sc->refs[i].store(0);
    classes_.push_back(std::move(sc));
  }
  std::sort(classes_.begin(), classes_.end(),
            [](const auto& a, const auto& b) {
              return a->slab_bytes < b->slab_bytes;
            });
}

Payload SlabPool::try_acquire(std::size_t size) {
  if (size == 0) return Payload();
  for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
    SizeClass& sc = *classes_[cls];
    if (sc.slab_bytes < size) continue;
    std::uint32_t index = 0;
    std::byte* base = nullptr;
    {
      MutexLock lk(sc.mu);
      if (!sc.built) {
        // Left uninitialised: a slab's pages become resident when a
        // payload first writes them, not when the class is built.
        sc.arena = std::make_unique_for_overwrite<std::byte[]>(
            sc.slab_bytes * sc.count);
        sc.free_slots.reserve(sc.count);
        // Pushed in reverse so slab 0 is handed out first (cache-warm
        // reuse order under LIFO pop_back below).
        for (std::size_t i = sc.count; i-- > 0;) {
          sc.free_slots.push_back(static_cast<std::uint32_t>(i));
        }
        sc.built = true;
      }
      if (sc.free_slots.empty()) continue;  // try the next-larger class
      index = sc.free_slots.back();
      sc.free_slots.pop_back();
      base = sc.arena.get() + static_cast<std::size_t>(index) * sc.slab_bytes;
    }
    sc.refs[index].store(1, std::memory_order_relaxed);
    sc.used.fetch_add(1, std::memory_order_relaxed);
    acquired_.fetch_add(1, std::memory_order_relaxed);
    if (hooks_.on_acquire) hooks_.on_acquire();
    return Payload(this, make_slot(cls, index), base, size);
  }
  exhausted_.fetch_add(1, std::memory_order_relaxed);
  if (hooks_.on_exhausted) hooks_.on_exhausted();
  return Payload();
}

void SlabPool::add_ref(std::uint32_t slot) {
  SizeClass& sc = *classes_[slot >> 20];
  sc.refs[slot & 0xFFFFF].fetch_add(1, std::memory_order_relaxed);
}

void SlabPool::release(std::uint32_t slot) {
  SizeClass& sc = *classes_[slot >> 20];
  const std::uint32_t index = slot & 0xFFFFF;
  // acq_rel: the last releaser must observe every write the other
  // handles made into the slab before it goes back on the freelist.
  if (sc.refs[index].fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  {
    MutexLock lk(sc.mu);
    sc.free_slots.push_back(index);
  }
  sc.used.fetch_sub(1, std::memory_order_relaxed);
  released_.fetch_add(1, std::memory_order_relaxed);
  if (hooks_.on_release) hooks_.on_release();
}

double SlabPool::used_fraction() const {
  double worst = 0.0;
  for (const auto& sc : classes_) {
    const double frac = static_cast<double>(sc->used.load()) /
                        static_cast<double>(sc->count);
    worst = std::max(worst, frac);
  }
  return worst;
}

std::size_t SlabPool::slab_count() const {
  std::size_t n = 0;
  for (const auto& sc : classes_) n += sc->count;
  return n;
}

std::size_t SlabPool::in_use() const {
  std::size_t n = 0;
  for (const auto& sc : classes_) n += sc->used.load();
  return n;
}

}  // namespace iofa
