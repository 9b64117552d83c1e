// Transport layer (PR 10): the FrameRing channel, the three Transport
// implementations behind one interface, the ChaosTransport decorator's
// verb semantics, and the option/env plumbing that selects between
// them. Frames are opaque byte vectors here; the dedup/retry
// discipline is exercised by fault_scenarios_test against a full
// ForwardingService. The last section drives RpcIonServer's signalled
// response path over Loopback and TCP.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "fault/clock.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fwd/rpc_endpoints.hpp"
#include "fwd/service.hpp"
#include "gkfs/chunk.hpp"
#include "rpc/chaos.hpp"
#include "rpc/codec.hpp"
#include "rpc/frame_ring.hpp"
#include "rpc/options.hpp"
#include "rpc/transport.hpp"

namespace iofa::rpc {
namespace {

std::vector<std::byte> frame_of(int tag, std::size_t len = 4) {
  std::vector<std::byte> f(len);
  for (std::size_t i = 0; i < len; ++i) {
    f[i] = static_cast<std::byte>((tag + static_cast<int>(i)) & 0xFF);
  }
  return f;
}

// --- FrameRing -----------------------------------------------------------

TEST(FrameRing, FifoOrderSingleProducer) {
  FrameRing ring(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(ring.push(frame_of(i)));
  for (int i = 0; i < 6; ++i) {
    auto f = ring.pop_wait();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, frame_of(i));
  }
}

TEST(FrameRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FrameRing(3).capacity(), 8u);  // minimum 8
  EXPECT_EQ(FrameRing(9).capacity(), 16u);
  EXPECT_EQ(FrameRing(64).capacity(), 64u);
}

TEST(FrameRing, CloseDrainsThenReturnsNullopt) {
  FrameRing ring(8);
  ASSERT_TRUE(ring.push(frame_of(1)));
  ASSERT_TRUE(ring.push(frame_of(2)));
  ring.close();
  EXPECT_FALSE(ring.push(frame_of(3)));  // refused after close
  EXPECT_EQ(ring.pop_wait(), frame_of(1));
  EXPECT_EQ(ring.pop_wait(), frame_of(2));
  EXPECT_FALSE(ring.pop_wait().has_value());  // drained + closed
}

TEST(FrameRing, CloseWakesParkedConsumer) {
  FrameRing ring(8);
  std::thread consumer([&] {  // iofa-lint: allow(raw-thread)
    EXPECT_FALSE(ring.pop_wait().has_value());
  });
  sleep_for_seconds(0.02);  // give the consumer time to park
  ring.close();
  consumer.join();
}

TEST(FrameRing, FullRingBlocksProducerUntilConsumed) {
  FrameRing ring(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ring.push(frame_of(i)));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {  // iofa-lint: allow(raw-thread)
    ASSERT_TRUE(ring.push(frame_of(99)));
    pushed.store(true);
  });
  sleep_for_seconds(0.02);
  EXPECT_FALSE(pushed.load());  // still parked on the full ring
  EXPECT_EQ(ring.pop_wait(), frame_of(0));
  producer.join();
  EXPECT_TRUE(pushed.load());
  ring.close();
}

TEST(FrameRing, ConcurrentProducersLoseNothing) {
  FrameRing ring(16);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;  // iofa-lint: allow(raw-thread)
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::vector<std::byte> f(8);
        f[0] = static_cast<std::byte>(p);
        ASSERT_TRUE(ring.push(std::move(f)));
      }
    });
  }
  int counts[kProducers] = {};
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    auto f = ring.pop_wait();
    ASSERT_TRUE(f.has_value());
    ++counts[static_cast<int>((*f)[0])];
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(counts[p], kPerProducer);
}

// --- Transport implementations -------------------------------------------

TEST(LoopbackTransport, DeliversBothDirectionsSynchronously) {
  LoopbackTransport t;
  std::vector<std::vector<std::byte>> at_server, at_client;
  t.set_handler(kServerSide,
                [&](std::vector<std::byte> f) { at_server.push_back(f); });
  t.set_handler(kClientSide,
                [&](std::vector<std::byte> f) { at_client.push_back(f); });
  t.send(kClientSide, frame_of(1));
  t.send(kServerSide, frame_of(2));
  ASSERT_EQ(at_server.size(), 1u);
  EXPECT_EQ(at_server[0], frame_of(1));
  ASSERT_EQ(at_client.size(), 1u);
  EXPECT_EQ(at_client[0], frame_of(2));
  t.close();
  t.send(kClientSide, frame_of(3));  // dropped, not delivered
  EXPECT_EQ(at_server.size(), 1u);
}

/// Shared stress body: N frames each way, FIFO per direction, nothing
/// lost. Runs against whatever make_transport() hands back, so shm and
/// tcp satisfy the identical contract.
void exercise_duplex(Transport& t, int frames) {
  Mutex mu;
  CondVar cv;
  std::vector<std::vector<std::byte>> at_server, at_client;
  t.set_handler(kServerSide, [&](std::vector<std::byte> f) {
    MutexLock lk(mu);
    at_server.push_back(std::move(f));
    cv.notify_all();
  });
  t.set_handler(kClientSide, [&](std::vector<std::byte> f) {
    MutexLock lk(mu);
    at_client.push_back(std::move(f));
    cv.notify_all();
  });
  std::thread c2s([&] {  // iofa-lint: allow(raw-thread)
    for (int i = 0; i < frames; ++i) t.send(kClientSide, frame_of(i, 64));
  });
  std::thread s2c([&] {  // iofa-lint: allow(raw-thread)
    for (int i = 0; i < frames; ++i) {
      t.send(kServerSide, frame_of(i + 7, 48));
    }
  });
  c2s.join();
  s2c.join();
  {
    UniqueLock lk(mu);
    const auto deadline =
        monotonic_now() + std::chrono::duration_cast<MonotonicClock::duration>(
                              std::chrono::duration<double>(5.0));
    while (at_server.size() < static_cast<std::size_t>(frames) ||
           at_client.size() < static_cast<std::size_t>(frames)) {
      ASSERT_NE(cv.wait_until(lk, deadline), std::cv_status::timeout)
          << "server got " << at_server.size() << ", client got "
          << at_client.size();
    }
  }
  for (int i = 0; i < frames; ++i) {
    EXPECT_EQ(at_server[static_cast<std::size_t>(i)], frame_of(i, 64));
    EXPECT_EQ(at_client[static_cast<std::size_t>(i)], frame_of(i + 7, 48));
  }
  t.close();
}

TEST(ShmRingTransport, DuplexFifoDelivery) {
  RpcOptions opts;
  opts.ring_capacity = 16;  // small ring: exercises producer parking
  auto t = make_transport(TransportKind::kShmRing, opts);
  exercise_duplex(*t, 2000);
}

TEST(TcpTransport, DuplexFifoDelivery) {
  auto t = make_transport(TransportKind::kTcp, RpcOptions{});
  exercise_duplex(*t, 500);
}

TEST(Transport, MakeTransportRefusesInProcKinds) {
  EXPECT_THROW(make_transport(TransportKind::kInProc, RpcOptions{}),
               std::invalid_argument);
  EXPECT_THROW(make_transport(TransportKind::kAuto, RpcOptions{}),
               std::invalid_argument);
}

TEST(Transport, CloseIsIdempotentAndDropsLateSends) {
  for (auto kind : {TransportKind::kShmRing, TransportKind::kTcp}) {
    auto t = make_transport(kind, RpcOptions{});
    std::atomic<int> got{0};
    t->set_handler(kServerSide,
                   [&](std::vector<std::byte>) { got.fetch_add(1); });
    t->set_handler(kClientSide, [&](std::vector<std::byte>) {});
    t->close();
    t->close();
    t->send(kClientSide, frame_of(1));  // silently dropped
    EXPECT_EQ(got.load(), 0) << to_string(kind);
  }
}

// --- ChaosTransport verb semantics ---------------------------------------

struct ChaosRig {
  explicit ChaosRig(fault::FaultPlan plan)
      : injector(std::move(plan), &clock) {
    auto inner = std::make_unique<LoopbackTransport>();
    chaos = std::make_unique<ChaosTransport>(std::move(inner), &injector,
                                             fault::rpc_req_site(0),
                                             fault::rpc_rsp_site(0));
    chaos->set_handler(kServerSide, [this](std::vector<std::byte> f) {
      at_server.push_back(std::move(f));
    });
    chaos->set_handler(kClientSide, [this](std::vector<std::byte> f) {
      at_client.push_back(std::move(f));
    });
  }

  fault::ManualFaultClock clock;
  fault::FaultInjector injector;
  std::unique_ptr<ChaosTransport> chaos;
  std::vector<std::vector<std::byte>> at_server, at_client;
};

TEST(ChaosTransport, DropSwallowsExactlyTheTriggeredFrame) {
  fault::FaultPlan plan;
  plan.drop_msg(fault::rpc_req_site(0), 2);  // the 2nd client frame
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(1));
  rig.chaos->send(kClientSide, frame_of(2));
  rig.chaos->send(kClientSide, frame_of(3));
  ASSERT_EQ(rig.at_server.size(), 2u);
  EXPECT_EQ(rig.at_server[0], frame_of(1));
  EXPECT_EQ(rig.at_server[1], frame_of(3));
  EXPECT_EQ(rig.injector.injected(fault::rpc_req_site(0)), 1u);
}

TEST(ChaosTransport, DupDeliversTheFrameTwice) {
  fault::FaultPlan plan;
  plan.dup_msg(fault::rpc_req_site(0), 1);
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(5));
  ASSERT_EQ(rig.at_server.size(), 2u);
  EXPECT_EQ(rig.at_server[0], frame_of(5));
  EXPECT_EQ(rig.at_server[1], frame_of(5));
}

TEST(ChaosTransport, TruncateCutsToHalfPrefix) {
  fault::FaultPlan plan;
  plan.truncate_msg(fault::rpc_req_site(0), 1);
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(1, 8));
  ASSERT_EQ(rig.at_server.size(), 1u);
  const auto full = frame_of(1, 8);
  const std::vector<std::byte> half(full.begin(), full.begin() + 4);
  EXPECT_EQ(rig.at_server[0], half);
}

TEST(ChaosTransport, ReorderSwapsWithTheNextFrame) {
  fault::FaultPlan plan;
  plan.reorder_msg(fault::rpc_req_site(0), 1);
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(1));
  EXPECT_TRUE(rig.at_server.empty());  // held in the swap slot
  rig.chaos->send(kClientSide, frame_of(2));
  rig.chaos->send(kClientSide, frame_of(3));
  ASSERT_EQ(rig.at_server.size(), 3u);
  EXPECT_EQ(rig.at_server[0], frame_of(2));
  EXPECT_EQ(rig.at_server[1], frame_of(1));
  EXPECT_EQ(rig.at_server[2], frame_of(3));
}

TEST(ChaosTransport, HeldReorderFrameFlushesOnClose) {
  fault::FaultPlan plan;
  plan.reorder_msg(fault::rpc_req_site(0), 1);
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(9));
  EXPECT_TRUE(rig.at_server.empty());
  rig.chaos->close();
  ASSERT_EQ(rig.at_server.size(), 1u);
  EXPECT_EQ(rig.at_server[0], frame_of(9));
}

TEST(ChaosTransport, DelayStallsTheSendingThread) {
  fault::FaultPlan plan;
  plan.delay_msg(fault::rpc_req_site(0), 1, 0.05);
  ChaosRig rig(std::move(plan));
  const auto t0 = monotonic_now();
  rig.chaos->send(kClientSide, frame_of(1));
  const double elapsed =
      std::chrono::duration<double>(monotonic_now() - t0).count();
  EXPECT_GE(elapsed, 0.045);
  ASSERT_EQ(rig.at_server.size(), 1u);  // delayed, not lost
}

TEST(ChaosTransport, DirectionsUseTheirOwnSites) {
  fault::FaultPlan plan;
  plan.drop_msg(fault::rpc_rsp_site(0), 1);  // server->client only
  ChaosRig rig(std::move(plan));
  rig.chaos->send(kClientSide, frame_of(1));
  rig.chaos->send(kServerSide, frame_of(2));  // dropped
  rig.chaos->send(kServerSide, frame_of(3));
  EXPECT_EQ(rig.at_server.size(), 1u);
  ASSERT_EQ(rig.at_client.size(), 1u);
  EXPECT_EQ(rig.at_client[0], frame_of(3));
}

TEST(ChaosTransport, NullInjectorIsPassThrough) {
  auto inner = std::make_unique<LoopbackTransport>();
  ChaosTransport chaos(std::move(inner), nullptr, fault::rpc_req_site(0),
                       fault::rpc_rsp_site(0));
  std::vector<std::vector<std::byte>> got;
  chaos.set_handler(kServerSide,
                    [&](std::vector<std::byte> f) { got.push_back(f); });
  chaos.set_handler(kClientSide, [](std::vector<std::byte>) {});
  for (int i = 0; i < 10; ++i) chaos.send(kClientSide, frame_of(i));
  EXPECT_EQ(got.size(), 10u);
}

TEST(ChaosTransport, SameSeedSameDecisions) {
  // prob-triggered drops replay identically: the surviving frame set
  // is a pure function of (seed, site, check index).
  auto survivors = [](std::uint64_t seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.drop_msg_prob(fault::rpc_req_site(0), 0.4);
    ChaosRig rig(std::move(plan));
    for (int i = 0; i < 200; ++i) rig.chaos->send(kClientSide, frame_of(i));
    return rig.at_server;
  };
  const auto a = survivors(42);
  EXPECT_EQ(a, survivors(42));
  EXPECT_NE(a.size(), 200u);  // the plan actually dropped something
  EXPECT_NE(survivors(43), a);
}

// --- options / env plumbing ----------------------------------------------

TEST(RpcOptions, ParseTransportNames) {
  EXPECT_EQ(parse_transport("inproc"), TransportKind::kInProc);
  EXPECT_EQ(parse_transport("shm"), TransportKind::kShmRing);
  EXPECT_EQ(parse_transport("tcp"), TransportKind::kTcp);
  EXPECT_FALSE(parse_transport("").has_value());
  EXPECT_FALSE(parse_transport("udp").has_value());
  EXPECT_FALSE(parse_transport("SHM").has_value());
}

TEST(RpcOptions, ResolveTransportHonoursEnvironment) {
  // Explicit kinds ignore the environment entirely.
  ::setenv("IOFA_TRANSPORT", "tcp", 1);
  EXPECT_EQ(resolve_transport(TransportKind::kShmRing),
            TransportKind::kShmRing);
  // kAuto follows it.
  EXPECT_EQ(resolve_transport(TransportKind::kAuto), TransportKind::kTcp);
  ::setenv("IOFA_TRANSPORT", "shm", 1);
  EXPECT_EQ(resolve_transport(TransportKind::kAuto),
            TransportKind::kShmRing);
  // A typo in the matrix must fail loudly, not run in-proc silently.
  ::setenv("IOFA_TRANSPORT", "smh", 1);
  EXPECT_THROW(resolve_transport(TransportKind::kAuto),
               std::invalid_argument);
  ::unsetenv("IOFA_TRANSPORT");
  EXPECT_EQ(resolve_transport(TransportKind::kAuto),
            TransportKind::kInProc);
}

TEST(RpcOptions, ValidateRejectsNonsense) {
  EXPECT_NO_THROW(validate_rpc_options(RpcOptions{}));
  {
    RpcOptions o;
    o.ack_timeout = 0.0;
    EXPECT_THROW(validate_rpc_options(o), std::invalid_argument);
  }
  {
    RpcOptions o;
    o.dedup_window = 0;
    EXPECT_THROW(validate_rpc_options(o), std::invalid_argument);
  }
  {
    RpcOptions o;
    o.ring_capacity = 0;
    EXPECT_THROW(validate_rpc_options(o), std::invalid_argument);
  }
  {
    RpcOptions o;
    o.mapping_attempts = 0;
    EXPECT_THROW(validate_rpc_options(o), std::invalid_argument);
  }
  {
    RpcOptions o;
    o.retry_backoff.base = -1.0;
    EXPECT_THROW(validate_rpc_options(o), std::invalid_argument);
  }
}

// --- RpcIonServer response path ------------------------------------------
// The server learns of each completion from the daemon (it is the
// request's CompletionSink) and a responder thread ships the response.
// These rigs wire a client stub and a server over a bare transport to an
// in-proc daemon, so the tests can gate individual server frames.

/// Holds server frames of type `held` (if any) at a gate. The gate
/// opens when a frame of type `opens` has been sent, or when the test
/// calls open(). Swallows the server frames armed with drop_next().
/// Records the order of every server frame that reached the wire.
class GatedTransport : public Transport {
 public:
  GatedTransport(std::unique_ptr<Transport> inner,
                 std::optional<MsgType> held, std::optional<MsgType> opens)
      : inner_(std::move(inner)), held_(held), opens_(opens) {}

  void set_handler(int side, Handler handler) override {
    inner_->set_handler(side, std::move(handler));
  }

  void send(int side, std::vector<std::byte> frame) override {
    if (side != kServerSide) {
      {
        // A resend waits until the armed drops have fired, so it finds
        // the outcome of the first copy settled at the server.
        UniqueLock lk(mu_);
        while (!to_drop_.empty() && client_frames_ > armed_at_) cv_.wait(lk);
        ++client_frames_;
      }
      inner_->send(side, std::move(frame));
      return;
    }
    const MsgType type = peek_type(frame);
    {
      MutexLock lk(mu_);
      const auto drop = std::find(to_drop_.begin(), to_drop_.end(), type);
      if (drop != to_drop_.end()) {
        to_drop_.erase(drop);
        cv_.notify_all();
        return;
      }
    }
    if (held_ && type == *held_) {
      UniqueLock lk(mu_);
      ++holding_;
      cv_.notify_all();
      while (!open_) cv_.wait(lk);
      --holding_;
    }
    inner_->send(side, std::move(frame));
    MutexLock lk(mu_);
    sent_.push_back(type);
    if (opens_ && type == *opens_) open_ = true;
    cv_.notify_all();
  }

  void close() override { inner_->close(); }

  void open() {
    MutexLock lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// Swallow the next server frame of `type`. Until every armed drop
  /// has fired, only the next client frame goes out.
  void drop_next(MsgType type) {
    MutexLock lk(mu_);
    if (to_drop_.empty()) armed_at_ = client_frames_;
    to_drop_.push_back(type);
  }

  /// Block until a sender is parked at the gate.
  void await_holding() {
    UniqueLock lk(mu_);
    while (holding_ == 0) cv_.wait(lk);
  }

  /// The server frames sent so far, once there are at least `n`.
  std::vector<MsgType> await_sent(std::size_t n) {
    UniqueLock lk(mu_);
    while (sent_.size() < n) cv_.wait(lk);
    return sent_;
  }

 private:
  std::unique_ptr<Transport> inner_;
  const std::optional<MsgType> held_;
  const std::optional<MsgType> opens_;
  Mutex mu_;
  CondVar cv_;
  bool open_ IOFA_GUARDED_BY(mu_) = false;
  int holding_ IOFA_GUARDED_BY(mu_) = 0;
  std::vector<MsgType> sent_ IOFA_GUARDED_BY(mu_);
  std::vector<MsgType> to_drop_ IOFA_GUARDED_BY(mu_);
  std::uint64_t client_frames_ IOFA_GUARDED_BY(mu_) = 0;
  std::uint64_t armed_at_ IOFA_GUARDED_BY(mu_) = 0;
};

/// One ION link: client stub and server over `transport`, in front of
/// an in-proc daemon. Tear-down follows the service's order: daemon
/// drained, server stopped, transport closed.
struct ServerRig {
  ServerRig(std::unique_ptr<Transport> inner, RpcOptions options,
            std::optional<MsgType> held = std::nullopt,
            std::optional<MsgType> opens = std::nullopt)
      : service(config()),
        transport(std::make_unique<GatedTransport>(std::move(inner), held,
                                                   opens)),
        server(std::make_unique<fwd::RpcIonServer>(*transport, service, 0,
                                                   options, &reg)),
        client(std::make_unique<fwd::RpcIonClient>(*transport, 0, options,
                                                   7, &reg)) {}

  ~ServerRig() {
    service.drain();
    server->stop();
    transport->close();
    client.reset();
    server.reset();
    service.shutdown();
  }

  fwd::ServiceConfig config() {
    fwd::ServiceConfig cfg;
    cfg.ion_count = 1;
    cfg.transport = TransportKind::kInProc;  // the rig brings its own link
    cfg.pfs.registry = &reg;
    cfg.ion.registry = &reg;
    cfg.ion.scheduler.kind = agios::SchedulerKind::Fifo;
    return cfg;
  }

  /// Offer one op through the stub; the future is the client's view of
  /// the response.
  std::future<std::size_t> submit(fwd::FwdOp op, std::uint64_t offset,
                                  iofa::Payload payload) {
    fwd::FwdRequest req;
    req.op = op;
    req.path = "/srv";
    req.file_id = gkfs::hash_path(req.path);
    req.offset = offset;
    req.size = payload.size();
    req.payload = std::move(payload);
    req.done = std::make_shared<std::promise<std::size_t>>();
    auto fut = req.done->get_future();
    EXPECT_EQ(client->try_submit(std::move(req)),
              fwd::SubmitResult::kAccepted);
    return fut;
  }

  /// The link's counter `name` (label link=ion.0).
  telemetry::Counter& counter(const std::string& name) {
    return reg.counter(name, {{"link", "ion.0"}});
  }
  double cached_bytes() {
    return reg.gauge("rpc.dedup_cached_bytes", {{"link", "ion.0"}}).value();
  }

  telemetry::Registry reg;
  fwd::ForwardingService service;
  std::unique_ptr<GatedTransport> transport;
  std::unique_ptr<fwd::RpcIonServer> server;
  std::unique_ptr<fwd::RpcIonClient> client;
};

iofa::Payload block_of(std::uint8_t fill, std::size_t n = 4096) {
  return iofa::Payload::wrap(
      std::make_shared<std::vector<std::byte>>(n, std::byte{fill}));
}

/// Wire size of the response to a 4 KiB read.
double read_response_bytes() {
  SubmitResponseMsg rsp;
  rsp.data.resize(4096);
  return static_cast<double>(encode(1, rsp).size());
}

class RpcIonServerPath : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<Transport> link() const {
    if (GetParam()) return make_transport(TransportKind::kTcp, RpcOptions{});
    return std::make_unique<LoopbackTransport>();
  }
};

TEST_P(RpcIonServerPath, CompletionOutrunningTheAckIsAnswered) {
  // The server records a request in flight before it offers it to the
  // daemon, so the completion can fire while on_frame is still busy.
  // Here the ack is held at the gate until the response has gone out:
  // the completion settles, and is answered, before on_frame finishes.
  ServerRig rig(link(), RpcOptions{}, MsgType::kSubmitAck,
                MsgType::kSubmitResponse);
  auto fut = rig.submit(fwd::FwdOp::Write, 0, block_of(0x11));
  EXPECT_EQ(fut.get(), 4096u);
  const auto sent = rig.transport->await_sent(2);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0], MsgType::kSubmitResponse);
  EXPECT_EQ(sent[1], MsgType::kSubmitAck);
}

TEST_P(RpcIonServerPath, StopShipsEveryPendingResponse) {
  // The first response parks the responder at the gate; the rest queue
  // behind it. stop() must ship all of them before it returns, while
  // the transport is still open.
  ServerRig rig(link(), RpcOptions{}, MsgType::kSubmitResponse);
  constexpr int kOps = 8;
  std::vector<std::future<std::size_t>> futs;
  for (int i = 0; i < kOps; ++i) {
    futs.push_back(rig.submit(fwd::FwdOp::Write,
                              static_cast<std::uint64_t>(i) * 4096,
                              block_of(static_cast<std::uint8_t>(i))));
  }
  // Every completion has reached the server once the daemon drains.
  rig.service.drain();
  rig.transport->await_holding();
  std::thread stopper([&] { rig.server->stop(); });  // iofa-lint: allow(raw-thread)
  rig.transport->open();
  stopper.join();
  for (auto& fut : futs) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_EQ(fut.get(), 4096u);
  }
  EXPECT_EQ(rig.transport->await_sent(2 * kOps).size(),
            2u * kOps);  // ack + response
}

TEST_P(RpcIonServerPath, SequentialOpsNeedNoTimedWake) {
  // The stub's resend timer is pushed out of reach and every wait below
  // is untimed: the responder has no timer of its own, so a lost wakeup
  // hangs this test instead of showing up as latency.
  RpcOptions options;
  options.ack_timeout = 3600.0;
  ServerRig rig(link(), options);
  constexpr int kOps = 1000;
  for (int i = 0; i < kOps; ++i) {
    const auto fill = static_cast<std::uint8_t>(i);
    const std::uint64_t offset = static_cast<std::uint64_t>(i % 16) * 4096;
    EXPECT_EQ(rig.submit(fwd::FwdOp::Write, offset, block_of(fill)).get(),
              4096u);
    auto buf = std::make_shared<std::vector<std::byte>>(4096);
    EXPECT_EQ(rig.submit(fwd::FwdOp::Read, offset, iofa::Payload::wrap(buf))
                  .get(),
              4096u);
    ASSERT_EQ((*buf)[0], std::byte{fill}) << "op " << i;
    ASSERT_EQ((*buf)[4095], std::byte{fill}) << "op " << i;
  }
}

TEST_P(RpcIonServerPath, CachedResponsesFollowTheRequestsInFlight) {
  // Every request carries the lowest id its stub still awaits, so the
  // server forgets a response once the next request shows it arrived.
  // Keeping the last dedup_window responses instead would hold all
  // 1,000 read frames here (~4 MiB).
  ServerRig rig(link(), RpcOptions{});
  ASSERT_EQ(rig.submit(fwd::FwdOp::Write, 0, block_of(0x5A)).get(), 4096u);
  double peak = 0.0;
  for (int i = 0; i < 1000; ++i) {
    auto buf = std::make_shared<std::vector<std::byte>>(4096);
    ASSERT_EQ(
        rig.submit(fwd::FwdOp::Read, 0, iofa::Payload::wrap(buf)).get(),
        4096u);
    ASSERT_EQ((*buf)[4095], std::byte{0x5A}) << "read " << i;
    peak = std::max(peak, rig.cached_bytes());
  }
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, 2.0 * read_response_bytes());
}

TEST_P(RpcIonServerPath, ResendReplaysACachedResponseAfterAckAndResponseLoss) {
  // The first ack and the first response of a read are both lost. The
  // stub resends the same id after its ack window; the server answers
  // the duplicate from its dedup window and response cache, and the
  // call completes with its data - no request timeout, no new id.
  RpcOptions options;
  options.ack_timeout = 0.05;
  ServerRig rig(link(), options);
  ASSERT_EQ(rig.submit(fwd::FwdOp::Write, 0, block_of(0x3C)).get(), 4096u);
  rig.transport->drop_next(MsgType::kSubmitAck);
  rig.transport->drop_next(MsgType::kSubmitResponse);
  auto buf = std::make_shared<std::vector<std::byte>>(4096);
  auto fut = rig.submit(fwd::FwdOp::Read, 0, iofa::Payload::wrap(buf));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(fut.get(), 4096u);
  EXPECT_EQ((*buf)[0], std::byte{0x3C});
  EXPECT_EQ((*buf)[4095], std::byte{0x3C});
  EXPECT_GE(rig.counter("rpc.retries").value(), 1u);
  EXPECT_GE(rig.counter("rpc.dedup_hits").value(), 1u);
}

TEST_P(RpcIonServerPath, AbandonedCallLeavesTheCacheBoundedByTheWindow) {
  // A call whose response is lost stays pending at the stub and pins
  // its mark, so the server keeps every later response until it leaves
  // the dedup window: the window is the bound, as before the mark.
  RpcOptions options;
  options.dedup_window = 16;
  ServerRig rig(link(), options);
  ASSERT_EQ(rig.submit(fwd::FwdOp::Write, 0, block_of(0x77)).get(), 4096u);
  rig.transport->drop_next(MsgType::kSubmitResponse);
  auto lost_buf = std::make_shared<std::vector<std::byte>>(4096);
  auto lost = rig.submit(fwd::FwdOp::Read, 0, iofa::Payload::wrap(lost_buf));
  const double bound =
      static_cast<double>(options.dedup_window) * read_response_bytes();
  double last = 0.0;
  for (int i = 0; i < 100; ++i) {
    auto buf = std::make_shared<std::vector<std::byte>>(4096);
    ASSERT_EQ(
        rig.submit(fwd::FwdOp::Read, 0, iofa::Payload::wrap(buf)).get(),
        4096u);
    last = rig.cached_bytes();
    ASSERT_LE(last, bound) << "read " << i;
  }
  EXPECT_EQ(lost.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_GT(last, 2.0 * read_response_bytes());  // the mark is pinned
}

INSTANTIATE_TEST_SUITE_P(Transports, RpcIonServerPath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "tcp" : "loopback";
                         });

}  // namespace
}  // namespace iofa::rpc
