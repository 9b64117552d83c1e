#pragma once
// Bounded MPSC completion ring for the ION daemon.
//
// Completing a request used to mean fulfilling its promise inline on
// the worker/flusher thread — a futex wake per request, serialising
// the ack path on promise/future machinery. The ring decouples the
// two: producers (dispatch workers, flushers) push small completion
// records lock-free, and one drainer thread per daemon fulfils the
// promises in batches, so a worker's dispatch cadence is never gated
// on a client's wakeup.
//
// The slot protocol is the classic bounded-MPMC sequence scheme
// (Vyukov), restricted here to many producers / one consumer: each
// slot carries an atomic sequence number; a producer CASes the tail to
// claim a slot and publishes by storing seq = pos + 1; the consumer
// reads slots in order and recycles them by storing seq = pos + cap.
// Push never blocks: when the ring is momentarily full the caller
// fulfils the promise inline (counted), trading one slow ack for a
// never-stalling hot path.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "fwd/request.hpp"

namespace iofa::fwd {

/// One completion travelling from a pipeline thread to the drainer.
struct CompletionRecord {
  /// Promise to fulfil; never null inside the ring (recordless
  /// completions bypass it entirely).
  std::shared_ptr<std::promise<std::size_t>> done;
  std::size_t value = 0;
  /// Non-null for failure completions (IonDownError etc.).
  std::exception_ptr error;
  /// The request's completion listener (FwdRequest::sink), told the
  /// outcome right after `done` settles; may be null.
  CompletionSink* sink = nullptr;
  std::uint64_t sink_id = 0;
  /// Which drain counter the record settles: false decrements the
  /// daemon's pending_requests_, true its pending_flushes_.
  bool flush_side = false;
};

class CompletionRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit CompletionRing(std::size_t capacity);
  ~CompletionRing();

  CompletionRing(const CompletionRing&) = delete;
  CompletionRing& operator=(const CompletionRing&) = delete;

  /// Lock-free multi-producer push. On success `rec` is moved into the
  /// ring; on a full ring it is left intact and false is returned (the
  /// caller completes inline). Pushing after close() is allowed — the
  /// drainer keeps draining until the ring is closed AND empty, so
  /// nothing pushed before the producers stop is ever lost.
  bool try_push(CompletionRecord& rec);

  /// Single-consumer batch pop: moves up to `max` records into `out`
  /// (appending) and returns how many. Never blocks.
  std::size_t drain(std::vector<CompletionRecord>& out, std::size_t max);

  /// Park until a record is pushed, the ring closes, or `max_wait_s`
  /// elapses. Single consumer only. Returns immediately when a record
  /// is already visible.
  void wait_nonempty(double max_wait_s) IOFA_EXCLUDES(wake_mu_);

  void close() IOFA_EXCLUDES(wake_mu_);
  bool is_closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t capacity() const { return mask_ + 1; }
  /// Records pushed inline-fallback side because the ring was full.
  std::uint64_t full_rejections() const { return full_.load(); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    CompletionRecord rec;
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  /// Producer cursor (claimed via CAS) and consumer cursor (single
  /// thread; atomic only so capacity checks in try_push stay defined).
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> full_{0};

  /// Drainer parking: producers take the mutex only when the consumer
  /// has advertised it is parked, so the push fast path stays lock-free
  /// under load. The mutex guards no data - it only orders the parked_
  /// re-check against notify so the drainer's wakeup cannot be lost.
  std::atomic<bool> parked_{false};
  Mutex wake_mu_;  // iofa-lint: allow(naked-mutex)
  CondVar wake_cv_;
};

}  // namespace iofa::fwd
