#include "fwd/rpc_endpoints.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "common/clock.hpp"
#include "fault/backoff.hpp"
#include "fwd/mapping.hpp"
#include "fwd/service.hpp"

namespace iofa::fwd {

namespace {

// The wire enums are pinned to the in-process ones so the endpoint
// conversions below are lookup-free and cannot silently drift.
static_assert(static_cast<int>(rpc::WireOp::kWrite) ==
              static_cast<int>(FwdOp::Write));
static_assert(static_cast<int>(rpc::WireOp::kRead) ==
              static_cast<int>(FwdOp::Read));
static_assert(static_cast<int>(rpc::WireOp::kFsync) ==
              static_cast<int>(FwdOp::Fsync));
static_assert(static_cast<int>(rpc::WireSubmitResult::kAccepted) ==
              static_cast<int>(SubmitResult::kAccepted));
static_assert(static_cast<int>(rpc::WireSubmitResult::kBusy) ==
              static_cast<int>(SubmitResult::kBusy));
static_assert(static_cast<int>(rpc::WireSubmitResult::kDown) ==
              static_cast<int>(SubmitResult::kDown));

telemetry::Registry& reg_of(telemetry::Registry* registry) {
  return registry ? *registry : telemetry::Registry::global();
}

/// Sleep-until helper: one ack-timeout window from now.
MonotonicClock::time_point ack_deadline(Seconds timeout) {
  return monotonic_now() +
         std::chrono::duration_cast<MonotonicClock::duration>(
             std::chrono::duration<double>(timeout));
}

}  // namespace

// --- RpcIonClient ----------------------------------------------------------

RpcIonClient::RpcIonClient(rpc::Transport& transport, int ion,
                           const rpc::RpcOptions& options,
                           std::uint64_t seed,
                           telemetry::Registry* registry)
    : transport_(transport), ion_(ion), options_(options), seed_(seed) {
  auto& reg = reg_of(registry);
  const telemetry::Labels labels{{"link", "ion." + std::to_string(ion)}};
  retries_ctr_ = &reg.counter("rpc.retries", labels);
  frames_sent_ctr_ = &reg.counter("rpc.frames_sent", labels);
  frames_recv_ctr_ = &reg.counter("rpc.frames_recv", labels);
  codec_errors_ctr_ = &reg.counter("rpc.codec_errors", labels);
  transport_.set_handler(rpc::kClientSide,
                         [this](std::vector<std::byte> frame) {
                           on_frame(std::move(frame));
                         });
}

SubmitResult RpcIonClient::try_submit(FwdRequest req) {
  rpc::SubmitRequestMsg msg;
  msg.op = static_cast<rpc::WireOp>(req.op);
  msg.tenant = req.tenant;
  msg.file_id = req.file_id;
  msg.offset = req.offset;
  msg.size = req.size;
  msg.stream_weight = req.stream_weight;
  msg.deadline_us = req.deadline_us;
  msg.path = req.path;
  if (req.op == FwdOp::Write && !req.payload.empty()) {
    // The wire copy of the payload - inherent to a message boundary
    // (the zero-copy path is the in-proc port's).
    const auto span = req.payload.span();
    msg.payload.assign(span.begin(), span.end());
  }
  std::uint64_t id = 0;
  {
    MutexLock lk(mu_);
    id = next_id_++;
    PendingCall& call = pending_[id];
    call.done = req.done;
    call.payload = req.payload;
    call.op = req.op;
    call.waiting = true;
    msg.settled_below = pending_.begin()->first;
  }
  const std::vector<std::byte> frame = rpc::encode(id, msg);

  // At-least-once: resend the same id until the server answers. The
  // dedup window makes every resend invisible to the daemon, so this
  // loop can be unbounded without ever double-applying (see the header
  // comment for why bounded give-up would break the accounting
  // identity).
  int attempt = 0;
  for (;;) {
    transport_.send(rpc::kClientSide, frame);
    frames_sent_ctr_->add();
    const auto deadline = ack_deadline(options_.ack_timeout);
    bool completed = false;
    bool acked = false;
    auto ack_result = rpc::WireSubmitResult::kDown;
    {
      UniqueLock lk(mu_);
      PendingCall& call = pending_.at(id);
      while (!call.acked && !call.completed) {
        if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
      }
      completed = call.completed;
      acked = call.acked;
      ack_result = call.ack_result;
      if (completed) {
        // The response arrived (possibly ahead of a reordered ack):
        // implicitly accepted, promise already fulfilled.
        pending_.erase(id);
      } else if (acked) {
        if (ack_result == rpc::WireSubmitResult::kAccepted) {
          call.waiting = false;  // entry stays until the response lands
        } else {
          pending_.erase(id);
        }
      }
    }
    if (completed) return SubmitResult::kAccepted;
    if (acked) return static_cast<SubmitResult>(ack_result);
    // Ack window expired: pace the resend with the deterministic
    // jittered backoff (stream keyed by the request id so replays of
    // the same seed resend at the same instants).
    ++attempt;
    retries_ctr_->add();
    sleep_for_seconds(
        fault::backoff_delay(options_.retry_backoff, attempt, seed_ ^ id));
  }
}

void RpcIonClient::apply_response(PendingCall& call,
                                  const rpc::SubmitResponseMsg& msg) {
  if (!call.done) return;
  switch (msg.status) {
    case rpc::WireStatus::kOk:
      if (call.op == FwdOp::Read && !call.payload.empty() &&
          !msg.data.empty()) {
        const std::size_t n =
            std::min(call.payload.size(), msg.data.size());
        std::memcpy(call.payload.span().data(), msg.data.data(), n);
      }
      call.done->set_value(static_cast<std::size_t>(msg.value));
      break;
    case rpc::WireStatus::kIonDown:
      call.done->set_exception(
          std::make_exception_ptr(IonDownError(ion_)));
      break;
    case rpc::WireStatus::kExpired:
      call.done->set_exception(
          std::make_exception_ptr(RequestExpiredError(ion_)));
      break;
    case rpc::WireStatus::kError:
      call.done->set_exception(std::make_exception_ptr(
          std::runtime_error("forwarding failed at ion " +
                             std::to_string(ion_))));
      break;
  }
}

void RpcIonClient::on_frame(std::vector<std::byte> frame) {
  frames_recv_ctr_->add();
  rpc::Decoded decoded;
  try {
    decoded = rpc::decode(frame);
  } catch (const rpc::CodecError&) {
    // Malformed frame (a truncate drill, or wire damage): drop it. If
    // it carried an ack the resend loop recovers; if a response, the
    // request timeout does.
    codec_errors_ctr_->add();
    return;
  }
  MutexLock lk(mu_);
  const auto it = pending_.find(decoded.request_id);
  if (it == pending_.end()) return;  // dup of an already-settled call
  PendingCall& call = it->second;
  if (const auto* ack = std::get_if<rpc::SubmitAckMsg>(&decoded.msg)) {
    if (!call.acked) {
      call.acked = true;
      call.ack_result = ack->result;
      cv_.notify_all();
    }
    return;
  }
  if (const auto* rsp =
          std::get_if<rpc::SubmitResponseMsg>(&decoded.msg)) {
    if (call.completed) return;
    apply_response(call, *rsp);
    call.completed = true;
    if (call.waiting) {
      cv_.notify_all();  // the submitter erases the entry
    } else {
      pending_.erase(it);
    }
  }
}

// --- RpcIonServer ----------------------------------------------------------

RpcIonServer::RpcIonServer(rpc::Transport& transport,
                           ForwardingService& service, int ion,
                           const rpc::RpcOptions& options,
                           telemetry::Registry* registry)
    : transport_(transport), service_(service), ion_(ion),
      options_(options) {
  auto& reg = reg_of(registry);
  const telemetry::Labels labels{{"link", "ion." + std::to_string(ion)}};
  dedup_hits_ctr_ = &reg.counter("rpc.dedup_hits", labels);
  cached_bytes_gauge_ = &reg.gauge("rpc.dedup_cached_bytes", labels);
  frames_sent_ctr_ = &reg.counter("rpc.frames_sent", labels);
  frames_recv_ctr_ = &reg.counter("rpc.frames_recv", labels);
  codec_errors_ctr_ = &reg.counter("rpc.codec_errors", labels);
  transport_.set_handler(rpc::kServerSide,
                         [this](std::vector<std::byte> frame) {
                           on_frame(std::move(frame));
                         });
  // iofa-lint: allow(raw-thread) - joined in stop(), not detached.
  responder_ = std::thread([this] { responder_loop(); });
}

RpcIonServer::~RpcIonServer() { stop(); }

void RpcIonServer::stop() {
  {
    MutexLock lk(settled_mu_);
    stopping_ = true;
    settled_cv_.notify_one();
  }
  // The responder empties the hand-off before it exits, so every
  // completion the daemon settled before this call is answered while
  // the transport is still open.
  if (responder_.joinable()) responder_.join();
}

void RpcIonServer::on_frame(std::vector<std::byte> frame) {
  frames_recv_ctr_->add();
  rpc::Decoded decoded;
  try {
    decoded = rpc::decode(frame);
  } catch (const rpc::CodecError&) {
    codec_errors_ctr_->add();
    return;  // the stub's resend loop re-delivers an intact copy
  }
  const auto* msg = std::get_if<rpc::SubmitRequestMsg>(&decoded.msg);
  if (!msg) return;  // not ours (client-side frame echoed by a test)
  const std::uint64_t id = decoded.request_id;

  // Rebuild the FwdRequest (payload re-materialised from the deployment
  // slab pool). A duplicate drops it again below, unused.
  FwdRequest req;
  req.op = static_cast<FwdOp>(msg->op);
  req.path = msg->path;
  req.file_id = msg->file_id;
  req.offset = msg->offset;
  req.size = msg->size;
  req.stream_weight = msg->stream_weight;
  req.deadline_us = msg->deadline_us;
  req.tenant = msg->tenant;
  Payload payload;
  if (req.op == FwdOp::Write && !msg->payload.empty()) {
    payload = service_.acquire_payload(msg->payload.size());
    std::memcpy(payload.span().data(), msg->payload.data(),
                msg->payload.size());
  } else if (req.op == FwdOp::Read && msg->size > 0 &&
             service_.config().ion.store_data) {
    // Reads materialise a server-side buffer only when the daemon
    // stores data at all; accounting-only deployments answer with
    // sizes, not bytes.
    payload = service_.acquire_payload(msg->size);
  }

  bool fresh = false;
  std::optional<rpc::WireSubmitResult> ack_result;
  std::vector<std::byte> response_copy;
  {
    MutexLock lk(mu_);
    // The mark never exceeds the request's own id (the stub registers
    // the call before it reads its lowest pending id), so this cannot
    // drop the response a resend of `id` is asking for.
    settle_below_locked(msg->settled_below);
    const auto claimed = dedup_.try_emplace(id);
    fresh = claimed.second;
    if (fresh) {
      // Recorded in flight before the daemon can see the request, so a
      // completion that fires before try_submit returns finds it.
      inflight_.emplace(id, Inflight{payload, req.op});
    } else {
      // Duplicate (chaos dup or an at-least-once resend): replay the
      // cached outcome, never touch the daemon. While the first copy
      // is still being offered nothing is cached yet; the stub's
      // resend loop asks again.
      dedup_hits_ctr_->add();
      ack_result = claimed.first->second;
      const auto cached = responses_.find(id);
      if (cached != responses_.end()) response_copy = cached->second;
    }
  }
  if (!fresh) {
    if (ack_result) {
      frames_sent_ctr_->add();
      transport_.send(rpc::kServerSide,
                      rpc::encode(id, rpc::SubmitAckMsg{*ack_result}));
    }
    if (!response_copy.empty()) {
      frames_sent_ctr_->add();
      transport_.send(rpc::kServerSide, std::move(response_copy));
    }
    return;
  }

  req.payload = std::move(payload);
  req.done = std::make_shared<std::promise<std::size_t>>();
  req.sink = this;
  req.sink_id = id;
  const SubmitResult res =
      service_.daemon(ion_).try_submit(std::move(req));
  rpc::SubmitAckMsg ack;
  ack.result = static_cast<rpc::WireSubmitResult>(res);
  {
    MutexLock lk(mu_);
    // A request answered before its ack may already have left the
    // window; its resends then find no entry and are offered afresh.
    const auto it = dedup_.find(id);
    if (it != dedup_.end()) it->second = ack.result;
    if (res != SubmitResult::kAccepted) {
      // Refused: the daemon never settles it, so the ack is the whole
      // answer.
      inflight_.erase(id);
      terminal_locked(id);
    }
  }
  frames_sent_ctr_->add();
  transport_.send(rpc::kServerSide, rpc::encode(id, ack));
}

void RpcIonServer::on_complete(std::uint64_t sink_id, std::size_t value,
                               const std::exception_ptr& error) {
  MutexLock lk(settled_mu_);
  settled_.push_back(Settled{sink_id, value, error});
  // Parked is only ever observed under the mutex, so a responder that
  // is about to park re-checks the hand-off first: no lost wakeup.
  if (parked_) settled_cv_.notify_one();
}

void RpcIonServer::responder_loop() {
  std::vector<Settled> batch;
  for (;;) {
    {
      UniqueLock lk(settled_mu_);
      while (settled_.empty() && !stopping_) {
        parked_ = true;
        settled_cv_.wait(lk);
        parked_ = false;
      }
      if (settled_.empty()) return;  // stopping, nothing left to ship
      batch.swap(settled_);
    }
    for (const Settled& settled : batch) respond(settled);
    batch.clear();
  }
}

void RpcIonServer::respond(const Settled& settled) {
  Inflight item;
  {
    MutexLock lk(mu_);
    const auto it = inflight_.find(settled.id);
    assert(it != inflight_.end());  // recorded before the offer
    item = std::move(it->second);
    inflight_.erase(it);
  }
  rpc::SubmitResponseMsg rsp;
  std::span<const std::byte> data;
  if (!settled.error) {
    rsp.status = rpc::WireStatus::kOk;
    rsp.value = settled.value;
    // The read's data is encoded straight from the slab: the frame is
    // the only copy.
    if (item.op == FwdOp::Read) data = item.payload.span();
  } else {
    try {
      std::rethrow_exception(settled.error);
    } catch (const IonDownError&) {
      rsp.status = rpc::WireStatus::kIonDown;
    } catch (const RequestExpiredError&) {
      rsp.status = rpc::WireStatus::kExpired;
    } catch (const std::exception&) {
      rsp.status = rpc::WireStatus::kError;
    }
  }
  std::vector<std::byte> frame = rpc::encode(settled.id, rsp, data);
  item.payload.reset();
  {
    MutexLock lk(mu_);
    // Below the mark the stub has already settled the call and will
    // never resend it: nothing to keep.
    if (settled.id >= settled_below_) {
      cached_bytes_ += frame.size();
      responses_.emplace(settled.id, frame);
      cached_bytes_gauge_->set(static_cast<double>(cached_bytes_));
    }
    terminal_locked(settled.id);
  }
  frames_sent_ctr_->add();
  transport_.send(rpc::kServerSide, std::move(frame));
}

void RpcIonServer::terminal_locked(std::uint64_t id) {
  terminal_order_.push_back(id);
  while (terminal_order_.size() > options_.dedup_window) {
    const std::uint64_t old = terminal_order_.front();
    terminal_order_.pop_front();
    dedup_.erase(old);
    const auto cached = responses_.find(old);
    if (cached != responses_.end()) uncache_locked(cached);
  }
}

void RpcIonServer::settle_below_locked(std::uint64_t mark) {
  if (mark <= settled_below_) return;  // stale or reordered copy
  settled_below_ = mark;
  const auto end = responses_.lower_bound(mark);
  for (auto it = responses_.begin(); it != end;) it = uncache_locked(it);
}

RpcIonServer::ResponseCache::iterator RpcIonServer::uncache_locked(
    ResponseCache::iterator it) {
  cached_bytes_ -= it->second.size();
  cached_bytes_gauge_->set(static_cast<double>(cached_bytes_));
  return responses_.erase(it);
}

// --- RpcMappingClient ------------------------------------------------------

RpcMappingClient::RpcMappingClient(rpc::Transport& transport,
                                   const rpc::RpcOptions& options,
                                   telemetry::Registry* registry)
    : transport_(transport), options_(options) {
  auto& reg = reg_of(registry);
  const telemetry::Labels labels{{"link", "mapping"}};
  retries_ctr_ = &reg.counter("rpc.retries", labels);
  frames_sent_ctr_ = &reg.counter("rpc.frames_sent", labels);
  frames_recv_ctr_ = &reg.counter("rpc.frames_recv", labels);
  codec_errors_ctr_ = &reg.counter("rpc.codec_errors", labels);
  transport_.set_handler(rpc::kClientSide,
                         [this](std::vector<std::byte> frame) {
                           on_frame(std::move(frame));
                         });
}

bool RpcMappingClient::round_trip(std::uint64_t id,
                                  const std::vector<std::byte>& frame,
                                  Waiter* waiter) {
  {
    MutexLock lk(mu_);
    waiters_[id] = waiter;
  }
  transport_.send(rpc::kClientSide, frame);
  frames_sent_ctr_->add();
  const auto deadline = ack_deadline(options_.ack_timeout);
  bool ok = false;
  {
    UniqueLock lk(mu_);
    while (!waiter->done) {
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
    ok = waiter->done;
    waiters_.erase(id);
  }
  return ok;
}

std::optional<MappingSnapshot> RpcMappingClient::fetch(core::JobId job) {
  rpc::MappingGetMsg msg;
  msg.job = job;
  for (int attempt = 1; attempt <= options_.mapping_attempts; ++attempt) {
    // A fresh id per attempt: gets are idempotent reads, so re-execution
    // is free and a late reply to an abandoned id is simply ignored.
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    Waiter waiter;
    if (round_trip(id, rpc::encode(id, msg), &waiter)) {
      return waiter.snap;
    }
    retries_ctr_->add();
  }
  return std::nullopt;  // store unreachable: caller keeps its cache
}

bool RpcMappingClient::publish(const core::Mapping& mapping) {
  rpc::MappingPublishMsg msg;
  msg.text = mapping.to_string();
  // ONE id for every attempt: the server applies a publish id at most
  // once, so resends cannot double-consume mapping.publish fault
  // events (or re-publish an epoch the arbiter has since replaced).
  const std::uint64_t id =
      next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<std::byte> frame = rpc::encode(id, msg);
  for (int attempt = 1; attempt <= options_.mapping_attempts; ++attempt) {
    Waiter waiter;
    if (round_trip(id, frame, &waiter)) return true;
    retries_ctr_->add();
  }
  return false;  // lost publish: the HealthMonitor self-heals it
}

void RpcMappingClient::on_frame(std::vector<std::byte> frame) {
  frames_recv_ctr_->add();
  rpc::Decoded decoded;
  try {
    decoded = rpc::decode(frame);
  } catch (const rpc::CodecError&) {
    codec_errors_ctr_->add();
    return;
  }
  MutexLock lk(mu_);
  const auto it = waiters_.find(decoded.request_id);
  if (it == waiters_.end()) return;  // reply to an abandoned attempt
  Waiter* waiter = it->second;
  if (const auto* reply = std::get_if<rpc::MappingReplyMsg>(&decoded.msg)) {
    waiter->snap.epoch = reply->epoch;
    waiter->snap.found = reply->found;
    waiter->snap.ions.assign(reply->ions.begin(), reply->ions.end());
  } else if (!std::holds_alternative<rpc::MappingPublishAckMsg>(
                 decoded.msg)) {
    return;  // unexpected type for this link
  }
  waiter->done = true;
  cv_.notify_all();
}

// --- RpcMappingServer ------------------------------------------------------

RpcMappingServer::RpcMappingServer(rpc::Transport& transport,
                                   MappingStore& store,
                                   const rpc::RpcOptions& options,
                                   telemetry::Registry* registry)
    : transport_(transport), store_(store), options_(options) {
  auto& reg = reg_of(registry);
  const telemetry::Labels labels{{"link", "mapping"}};
  dedup_hits_ctr_ = &reg.counter("rpc.dedup_hits", labels);
  frames_sent_ctr_ = &reg.counter("rpc.frames_sent", labels);
  frames_recv_ctr_ = &reg.counter("rpc.frames_recv", labels);
  codec_errors_ctr_ = &reg.counter("rpc.codec_errors", labels);
  transport_.set_handler(rpc::kServerSide,
                         [this](std::vector<std::byte> frame) {
                           on_frame(std::move(frame));
                         });
}

void RpcMappingServer::evict_locked() {
  while (publish_order_.size() > options_.dedup_window) {
    published_.erase(publish_order_.front());
    publish_order_.pop_front();
  }
}

void RpcMappingServer::on_frame(std::vector<std::byte> frame) {
  frames_recv_ctr_->add();
  rpc::Decoded decoded;
  try {
    decoded = rpc::decode(frame);
  } catch (const rpc::CodecError&) {
    codec_errors_ctr_->add();
    return;
  }
  const std::uint64_t id = decoded.request_id;
  if (const auto* get = std::get_if<rpc::MappingGetMsg>(&decoded.msg)) {
    // Idempotent read: dups re-execute, same order as the direct port
    // (lookup, then epoch).
    rpc::MappingReplyMsg reply;
    if (auto entry = store_.lookup(get->job)) {
      reply.found = true;
      reply.ions.assign(entry->ions.begin(), entry->ions.end());
    }
    reply.epoch = store_.epoch();
    frames_sent_ctr_->add();
    transport_.send(rpc::kServerSide, rpc::encode(id, reply));
    return;
  }
  if (const auto* pub = std::get_if<rpc::MappingPublishMsg>(&decoded.msg)) {
    std::vector<std::byte> ack_copy;
    {
      MutexLock lk(mu_);
      const auto it = published_.find(id);
      if (it != published_.end()) {
        // Dup (chaos or resend): the publish was already applied -
        // replay the ack without touching the store, so fault events
        // on mapping.publish are consumed at most once per id.
        dedup_hits_ctr_->add();
        ack_copy = it->second;
      }
    }
    if (ack_copy.empty()) {
      if (const auto mapping = core::Mapping::parse(pub->text)) {
        store_.publish(*mapping);
      }
      // A text the parser refuses still gets an ack: the publish was
      // delivered and rejected, which is terminal, not retryable.
      ack_copy = rpc::encode(id, rpc::MappingPublishAckMsg{});
      MutexLock lk(mu_);
      published_[id] = ack_copy;
      publish_order_.push_back(id);
      evict_locked();
    }
    frames_sent_ctr_->add();
    transport_.send(rpc::kServerSide, std::move(ack_copy));
  }
}

}  // namespace iofa::fwd
