#pragma once
// The forwarded-request envelope travelling from client shims to ION
// daemons (the in-process stand-in for GekkoFS's Mercury RPCs).

#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <string>

#include "common/slab_pool.hpp"
#include "common/units.hpp"

namespace iofa::fwd {

enum class FwdOp : std::uint8_t { Write, Read, Fsync };

/// Told a request's outcome right after its `done` promise settles, so
/// a caller that cannot park on the future (the RPC server's responder)
/// learns which request finished without polling. Runs on a daemon
/// pipeline thread: it must only hand the outcome off, never block.
class CompletionSink {
 public:
  /// `error` is null on success; `value` is then the bytes transferred.
  virtual void on_complete(std::uint64_t sink_id, std::size_t value,
                           const std::exception_ptr& error) = 0;

 protected:
  ~CompletionSink() = default;
};

struct FwdRequest {
  FwdOp op = FwdOp::Write;
  /// File path, consumed at the submit boundary: the daemon interns it
  /// into its id ↔ path table and clears this field, so queue hops and
  /// flush items carry only file_id (no per-hop string allocation). May
  /// be empty when the daemon is known to have the id interned already.
  std::string path;
  std::uint64_t file_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  /// Number of logical client processes this request's issuing thread
  /// stands for (threads are scaled down from the app's process count).
  double stream_weight = 1.0;
  /// Write payload / read destination: a refcounted slab handle (or the
  /// counted heap fallback). Empty in accounting-only mode: the bytes
  /// are charged and tracked but never materialised.
  Payload payload;
  /// Fulfilled with the bytes transferred once the daemon finishes the
  /// request (for writes: once staged; durability comes from Fsync).
  std::shared_ptr<std::promise<std::size_t>> done;
  /// Optional listener told `sink_id` and the outcome after `done`
  /// settles; null for callers that wait on `done` alone. Must outlive
  /// the request's completion.
  CompletionSink* sink = nullptr;
  std::uint64_t sink_id = 0;
  std::uint64_t tag = 0;  ///< daemon-local scheduler handle
  /// Stamped by IonDaemon::try_submit (monotonic_micros) on EVERY
  /// enqueue — including re-submissions after failover — so the ingest
  /// queue wait is observable per attempt; 0 = not stamped.
  std::uint64_t queued_us = 0;
  /// Absolute deadline (monotonic_micros) derived from the client's
  /// request timeout; the daemon drops the request at dequeue once it
  /// has passed (counted in fwd.overload.expired, failing `done` with
  /// RequestExpiredError). 0 = no deadline.
  std::uint64_t deadline_us = 0;
  /// QoS tenant id (qos::TenantId; index into the service's
  /// TenantRegistry). 0 = the default best-effort tenant; every request
  /// accounts under exactly one tenant so the per-tenant overload
  /// identity holds. Ignored while QoS is disabled.
  std::uint32_t tenant = 0;
};

}  // namespace iofa::fwd
