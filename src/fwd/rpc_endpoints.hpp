#pragma once
// Frame endpoints for the Client <-> IonDaemon and * <-> MappingStore
// links: the stubs (client side) and servers (daemon side) that turn
// the port calls of fwd/ports.hpp into versioned frames over any
// rpc::Transport.
//
// Delivery discipline (the accounting identity depends on it):
//
//   * Submits are AT-LEAST-ONCE: the stub resends the SAME request id
//     until a SubmitAck arrives. Resends are unbounded on purpose - a
//     bounded give-up after the server accepted (but every ack was
//     lost) would double-count the offer once the client re-submitted
//     it under a new id. The server always answers (kDown even while
//     its daemon is crashed), so resends terminate for any plan that
//     eventually lets one ack frame through.
//   * The server keeps a dedup window of answered request ids with
//     their ack results, and replays the ack for a duplicate - a dup
//     or resend can never reach the daemon twice (rpc.dedup_hits
//     counts the absorbed copies). It also replays the CACHED response
//     while the client may still ask for it: every request carries
//     settled_below, the lowest id its stub still awaits, and the
//     server drops the cached responses below the largest mark it has
//     seen (rpc.dedup_cached_bytes), or when an id leaves the window.
//   * A LOST SubmitResponse surfaces as the client's request timeout;
//     the shim abandons the attempt and re-offers under a NEW id,
//     which the daemon terminally counts once more - the same
//     semantics a timed-out in-proc attempt always had.
//   * Mapping fetch/publish use BOUNDED attempts: giving up is safe
//     (a lost publish is the dropped-mapping-file scenario the
//     HealthMonitor self-heals; a failed fetch keeps the cached view).

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "fwd/ports.hpp"
#include "rpc/codec.hpp"
#include "rpc/options.hpp"
#include "rpc/transport.hpp"
#include "telemetry/metrics.hpp"

namespace iofa::fwd {

class ForwardingService;

/// Client-side stub for one ION link. Thread-safe: the shim's issuing
/// threads call try_submit concurrently.
class RpcIonClient : public IonPort {
 public:
  /// `transport` and `registry` must outlive the stub. `seed` feeds the
  /// deterministic resend-backoff jitter.
  RpcIonClient(rpc::Transport& transport, int ion,
               const rpc::RpcOptions& options, std::uint64_t seed,
               telemetry::Registry* registry = nullptr);

  SubmitResult try_submit(FwdRequest req) override;

 private:
  struct PendingCall {
    std::shared_ptr<std::promise<std::size_t>> done;
    Payload payload;  ///< read destination (response data copies here)
    FwdOp op = FwdOp::Write;
    bool acked = false;
    rpc::WireSubmitResult ack_result = rpc::WireSubmitResult::kDown;
    bool completed = false;  ///< response already applied
    bool waiting = false;    ///< a try_submit caller still parked on it
  };

  void on_frame(std::vector<std::byte> frame);
  void apply_response(PendingCall& call, const rpc::SubmitResponseMsg& msg);

  rpc::Transport& transport_;
  const int ion_;
  const rpc::RpcOptions options_;
  const std::uint64_t seed_;
  Mutex mu_;
  CondVar cv_;
  /// Ids are allocated and registered in one critical section, so the
  /// lowest pending id (each request's settled_below) can never pass
  /// an id that is allocated but not yet registered.
  std::uint64_t next_id_ IOFA_GUARDED_BY(mu_) = 1;
  /// Calls still awaiting an ack or a response, in id order.
  std::map<std::uint64_t, PendingCall> pending_ IOFA_GUARDED_BY(mu_);
  telemetry::Counter* retries_ctr_ = nullptr;       ///< rpc.retries
  telemetry::Counter* frames_sent_ctr_ = nullptr;   ///< rpc.frames_sent
  telemetry::Counter* frames_recv_ctr_ = nullptr;   ///< rpc.frames_recv
  telemetry::Counter* codec_errors_ctr_ = nullptr;  ///< rpc.codec_errors
};

/// Daemon-side server for one ION link: decodes submits, dedups,
/// offers to the daemon, acks, and ships each completion back from a
/// responder thread. The server is the CompletionSink of every request
/// it offers: the daemon hands it (id, outcome) as the request settles,
/// and the responder - parked on a condition variable, with no timer -
/// encodes and sends that one response. Nothing polls or scans.
///
/// A request is recorded in flight BEFORE it is offered to the daemon,
/// so its completion can outrun the ack, never the record.
///
/// Memory follows the requests in flight: a response frame is cached
/// only while its id is at or above the largest settled_below a request
/// has carried, and the dedup window keeps one ack result per id.
class RpcIonServer : private CompletionSink {
 public:
  RpcIonServer(rpc::Transport& transport, ForwardingService& service,
               int ion, const rpc::RpcOptions& options,
               telemetry::Registry* registry = nullptr);
  ~RpcIonServer();

  RpcIonServer(const RpcIonServer&) = delete;
  RpcIonServer& operator=(const RpcIonServer&) = delete;

  /// Ship every response already handed over, then stop and join the
  /// responder. Idempotent. Drain or shut the daemon down first: a
  /// completion arriving after stop() gets no response, and the daemon
  /// must not outlive the server while requests are in flight.
  void stop();

 private:
  /// Encoded response frames by request id.
  using ResponseCache = std::map<std::uint64_t, std::vector<std::byte>>;
  struct Inflight {
    Payload payload;  ///< server-side buffer (read data source)
    FwdOp op = FwdOp::Write;
  };
  struct Settled {
    std::uint64_t id = 0;
    std::size_t value = 0;
    std::exception_ptr error;
  };

  void on_frame(std::vector<std::byte> frame);
  void on_complete(std::uint64_t sink_id, std::size_t value,
                   const std::exception_ptr& error) override
      IOFA_EXCLUDES(settled_mu_);
  void responder_loop() IOFA_EXCLUDES(settled_mu_);
  /// Encode, cache and send the response of one settled request.
  void respond(const Settled& settled) IOFA_EXCLUDES(mu_);
  /// Mark `id` answered: it joins the eviction queue.
  void terminal_locked(std::uint64_t id) IOFA_REQUIRES(mu_);
  /// Raise settled_below_ to `mark` and drop the responses below it.
  void settle_below_locked(std::uint64_t mark) IOFA_REQUIRES(mu_);
  /// Drop one cached response; returns the next entry.
  ResponseCache::iterator uncache_locked(ResponseCache::iterator it)
      IOFA_REQUIRES(mu_);

  rpc::Transport& transport_;
  ForwardingService& service_;
  const int ion_;
  const rpc::RpcOptions options_;
  Mutex mu_;
  /// Dedup window: id -> ack result, nullopt while the first copy is
  /// still being offered.
  std::unordered_map<std::uint64_t, std::optional<rpc::WireSubmitResult>>
      dedup_ IOFA_GUARDED_BY(mu_);
  /// Terminal ids in completion order - the eviction queue. Ids whose
  /// response is still pending are not in here and never evicted.
  std::deque<std::uint64_t> terminal_order_ IOFA_GUARDED_BY(mu_);
  /// Encoded responses a resend may still ask for, in id order; every
  /// key is >= settled_below_ and inside the dedup window.
  ResponseCache responses_ IOFA_GUARDED_BY(mu_);
  std::uint64_t settled_below_ IOFA_GUARDED_BY(mu_) = 0;
  std::size_t cached_bytes_ IOFA_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::uint64_t, Inflight> inflight_ IOFA_GUARDED_BY(mu_);
  /// Completion hand-off from the daemon's threads to the responder.
  Mutex settled_mu_;
  CondVar settled_cv_;
  std::vector<Settled> settled_ IOFA_GUARDED_BY(settled_mu_);
  bool parked_ IOFA_GUARDED_BY(settled_mu_) = false;
  bool stopping_ IOFA_GUARDED_BY(settled_mu_) = false;
  telemetry::Counter* dedup_hits_ctr_ = nullptr;    ///< rpc.dedup_hits
  telemetry::Gauge* cached_bytes_gauge_ = nullptr;  ///< rpc.dedup_cached_bytes
  telemetry::Counter* frames_sent_ctr_ = nullptr;
  telemetry::Counter* frames_recv_ctr_ = nullptr;
  telemetry::Counter* codec_errors_ctr_ = nullptr;
  std::thread responder_;  // iofa-lint: allow(raw-thread)
};

/// Client-side stub for the MappingStore link (shared by every client
/// view of the deployment plus the publish path).
class RpcMappingClient : public MappingPort {
 public:
  RpcMappingClient(rpc::Transport& transport, const rpc::RpcOptions& options,
                   telemetry::Registry* registry = nullptr);

  std::optional<MappingSnapshot> fetch(core::JobId job) override;
  bool publish(const core::Mapping& mapping) override;

 private:
  struct Waiter {
    bool done = false;
    MappingSnapshot snap;
  };

  void on_frame(std::vector<std::byte> frame);
  /// Send `frame` under a fresh id per attempt and wait one ack
  /// timeout; true when the matching reply arrived.
  bool round_trip(std::uint64_t id, const std::vector<std::byte>& frame,
                  Waiter* waiter);

  rpc::Transport& transport_;
  const rpc::RpcOptions options_;
  std::atomic<std::uint64_t> next_id_{1};
  Mutex mu_;
  CondVar cv_;
  std::unordered_map<std::uint64_t, Waiter*> waiters_ IOFA_GUARDED_BY(mu_);
  telemetry::Counter* retries_ctr_ = nullptr;
  telemetry::Counter* frames_sent_ctr_ = nullptr;
  telemetry::Counter* frames_recv_ctr_ = nullptr;
  telemetry::Counter* codec_errors_ctr_ = nullptr;
};

/// Store-side server: answers gets (idempotent, re-executed on dup)
/// and applies publishes exactly once per request id (a chaos-dup'd
/// publish frame must not consume a second mapping.publish fault
/// event).
class RpcMappingServer {
 public:
  RpcMappingServer(rpc::Transport& transport, MappingStore& store,
                   const rpc::RpcOptions& options,
                   telemetry::Registry* registry = nullptr);

 private:
  void on_frame(std::vector<std::byte> frame);
  void evict_locked() IOFA_REQUIRES(mu_);

  rpc::Transport& transport_;
  MappingStore& store_;
  const rpc::RpcOptions options_;
  Mutex mu_;
  /// Publish ids already applied, with their cached ack frames.
  std::unordered_map<std::uint64_t, std::vector<std::byte>> published_
      IOFA_GUARDED_BY(mu_);
  std::deque<std::uint64_t> publish_order_ IOFA_GUARDED_BY(mu_);
  telemetry::Counter* dedup_hits_ctr_ = nullptr;
  telemetry::Counter* frames_sent_ctr_ = nullptr;
  telemetry::Counter* frames_recv_ctr_ = nullptr;
  telemetry::Counter* codec_errors_ctr_ = nullptr;
};

}  // namespace iofa::fwd
