// live_queue: run_queue_live on the paper's 14-job queue under MCKP on
// 12 IONs, in the Fig. 9 configuration (TO-AGG, modelled bandwidths,
// forbid_direct, volumes scaled 1/2048). The only workload that
// exercises jobs, the replayer, mapping remaps and polls, TO-AGG
// aggregation and the token-bucket models. Modelled time dominates, so
// a CPU optimisation should leave it unchanged; a drop in arbitration
// quality or remap behaviour shows up in makespan and Eq. 2.
//
// One op is one I/O phase a job's client threads replay (the unit the
// replayer issues and waits on); the queue is repeated until the run's
// seconds are spent, after one untimed warm-up queue.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/policies.hpp"
#include "jobs/live_executor.hpp"
#include "platform/profile.hpp"
#include "telemetry/trace.hpp"
#include "workload/queuegen.hpp"

namespace perfbench {
namespace {

using namespace iofa;

constexpr std::size_t kMinQueues = 3;
/// Untimed runs keep going until the p99 has ten phases beyond it.
constexpr std::size_t kMinPhases = 1000;

fwd::ServiceConfig service_config() {
  fwd::ServiceConfig cfg;
  cfg.ion_count = 12;
  cfg.pfs.write_bandwidth = 900.0e6;
  cfg.pfs.read_bandwidth = 1400.0e6;
  cfg.pfs.op_overhead = 128 * KiB;
  cfg.pfs.contention_coeff = 0.02;
  cfg.pfs.store_data = false;
  cfg.ion.ingest_bandwidth = 650.0e6;
  cfg.ion.op_overhead = 32 * KiB;
  cfg.ion.store_data = false;
  cfg.transport = rpc::TransportKind::kInProc;
  return cfg;
}

jobs::LiveExecutorOptions live_options(std::uint64_t seed) {
  jobs::LiveExecutorOptions opts;
  opts.compute_nodes = 96;
  opts.pool = 12;
  opts.static_ratio = 32.0;
  opts.reallocate_running = true;
  opts.forbid_direct = true;
  opts.threads_per_job = 2;
  opts.poll_period = 0.005;
  opts.replay.store_data = false;
  opts.replay.volume_scale = 1.0 / 2048.0;
  opts.replay.min_phase_bytes = 16 * MiB;
  opts.replay.seed = seed;
  opts.transport = rpc::TransportKind::kInProc;
  return opts;
}

/// How replay_app lays out one phase: request size, participating
/// writers (the ones the scaled volume keeps busy) and requests each.
struct PhasePlan {
  Bytes req = 1;
  Bytes writers = 1;
  Bytes per_writer = 1;
};

PhasePlan replay_plan(const workload::AppSpec& app,
                      const workload::IoPhaseSpec& ph,
                      const fwd::ReplayOptions& ro) {
  PhasePlan plan;
  plan.req = std::max<Bytes>(1, ph.request_size);
  // The volume scaled by volume_scale, floored at min_phase_bytes but
  // never above the phase's own volume.
  Bytes scaled = static_cast<Bytes>(
      std::max(1.0, static_cast<double>(ph.total_bytes) * ro.volume_scale));
  scaled = std::max(scaled, std::min(ro.min_phase_bytes, ph.total_bytes));
  plan.writers = std::min<Bytes>(
      static_cast<Bytes>(ph.writers > 0 ? ph.writers : app.processes),
      std::max<Bytes>(1, scaled / plan.req));
  plan.per_writer = std::max<Bytes>(1, scaled / (plan.writers * plan.req));
  return plan;
}

/// File and offset of request `i` of `rank`, as replay_app addresses it.
std::pair<std::string, Bytes> request_at(const workload::IoPhaseSpec& ph,
                                         std::size_t phase,
                                         const PhasePlan& plan, Bytes rank,
                                         Bytes i) {
  std::string file =
      ph.file_tag.empty() ? "phase" + std::to_string(phase) : ph.file_tag;
  if (ph.layout == workload::FileLayout::FilePerProcess) {
    return {file + ".rank" + std::to_string(rank), i * plan.req};
  }
  if (ph.spatiality == workload::Spatiality::Contiguous) {
    return {file, (rank * plan.per_writer + i) * plan.req};
  }
  return {file, (i * plan.writers + rank) * plan.req};
}

/// Bytes each phase of `app` moves under `ro`: every write request in
/// full; every read request up to the end of what the job's earlier
/// phases wrote to that file (a read past end-of-file is short, as in
/// POSIX).
std::vector<Bytes> expected_phase_bytes(const workload::AppSpec& app,
                                        const fwd::ReplayOptions& ro) {
  std::map<std::string, Bytes> eof;
  std::vector<Bytes> out;
  for (std::size_t p = 0; p < app.phases.size(); ++p) {
    const auto& ph = app.phases[p];
    const PhasePlan plan = replay_plan(app, ph, ro);
    Bytes moved = 0;
    for (Bytes rank = 0; rank < plan.writers; ++rank) {
      for (Bytes i = 0; i < plan.per_writer; ++i) {
        const auto [file, off] = request_at(ph, p, plan, rank, i);
        if (ph.operation == workload::Operation::Write) {
          moved += plan.req;
          eof[file] = std::max(eof[file], off + plan.req);
        } else {
          const Bytes end = eof.count(file) ? eof[file] : 0;
          moved += off < end ? std::min(plan.req, end - off) : 0;
        }
      }
    }
    out.push_back(moved);
  }
  return out;
}

struct QueueRun {
  jobs::LiveRunResult result;
  double setup_s = 0.0;
  double wall_s = 0.0;
};

QueueRun run_queue(const std::vector<workload::AppSpec>& queue,
                   const platform::ProfileDB& profiles,
                   const jobs::LiveExecutorOptions& opts, Report& report) {
  QueueRun run;
  const double t0 = now_s();
  fwd::ForwardingService service(service_config());
  run.setup_s = now_s() - t0;

  RegistryDelta delta;
  delta.begin();
  const double t1 = now_s();
  {
    telemetry::ScopedSpan span("live.queue", "perfbench");
    run.result = jobs::run_queue_live(
        queue, profiles, std::make_shared<core::MckpPolicy>(), service, opts);
  }
  run.wall_s = now_s() - t1;
  delta.end();

  // Checks: every job of the queue completed once, replayed each phase
  // of its AppSpec with the volume the replay options demand, Eq. 2
  // recomputed from the per-job replay results, and the overload
  // accounting identity.
  report.attempted += queue.size();
  if (run.result.jobs.size() != queue.size()) {
    report.failed += queue.size() - std::min(queue.size(), run.result.jobs.size());
    report.errors.push_back("queue finished " +
                            std::to_string(run.result.jobs.size()) + " of " +
                            std::to_string(queue.size()) + " jobs");
  }
  std::vector<bool> seen(queue.size(), false);
  double eq2 = 0.0;
  for (const auto& job : run.result.jobs) {
    const std::string name =
        "job " + std::to_string(job.id) + " (" + job.label + ")";
    const auto qi = static_cast<std::size_t>(job.id - 1);
    if (job.id < 1 || qi >= queue.size() || seen[qi] ||
        queue[qi].label != job.label) {
      report.fail(name + " is not a distinct job of the queue");
      continue;
    }
    seen[qi] = true;
    const auto& spec = queue[qi];
    const auto& r = job.replay;
    // One failure per job: the first phase off its AppSpec volume, or
    // the job's totals.
    const std::vector<Bytes> want = expected_phase_bytes(spec, opts.replay);
    Bytes want_write = 0, want_read = 0;
    std::string wrong;
    for (std::size_t p = 0; p < spec.phases.size(); ++p) {
      const auto op = spec.phases[p].operation;
      (op == workload::Operation::Write ? want_write : want_read) += want[p];
      if (wrong.empty() &&
          (p >= r.phases.size() || r.phases[p].operation != op ||
           r.phases[p].bytes != want[p])) {
        wrong = "phase " + std::to_string(p) + " of " +
                std::to_string(r.phases.size()) + " replayed moved " +
                (p < r.phases.size() ? std::to_string(r.phases[p].bytes)
                                     : std::string("nothing")) +
                " bytes, expected " + std::to_string(want[p]);
      }
    }
    if (wrong.empty() && (r.phases.size() != spec.phases.size() ||
                          r.write_bytes != want_write ||
                          r.read_bytes != want_read)) {
      wrong = "wrote " + std::to_string(r.write_bytes) + "/" +
              std::to_string(want_write) + " and read " +
              std::to_string(r.read_bytes) + "/" + std::to_string(want_read) +
              " bytes in " + std::to_string(r.phases.size()) + " phases";
    }
    if (!wrong.empty()) report.fail(name + ": " + wrong);
    if (r.makespan <= 0.0 || job.finished < job.started) {
      report.fail(name + " has no positive runtime");
      continue;
    }
    eq2 += static_cast<double>(r.write_bytes + r.read_bytes) / 1e6 / r.makespan;
  }
  const double reported = run.result.aggregate_bw();
  if (std::abs(eq2 - reported) > 1e-9 * std::max(1.0, reported)) {
    report.fail("Eq. 2 recomputed " + std::to_string(eq2) +
                " MB/s != reported " + std::to_string(reported));
  }
  check_overload_identity(delta, report);
  return run;
}

}  // namespace

Report run_live_queue(const Args& args) {
  Report report;
  auto& tracer = telemetry::Tracer::global();
  const auto queue = workload::paper_queue();
  const auto profiles = platform::g5k_reference_profiles();
  const auto opts = live_options(args.seed);

  // Untimed warm-up queue: first-touch page faults, thread-stack
  // allocation and lazy statics stay out of the measured queues.
  std::vector<double> setup_s;
  setup_s.push_back(run_queue(queue, profiles, opts, report).setup_s);

  RegistryDelta delta;
  delta.begin();
  std::vector<QueueRun> runs;
  std::vector<bool> traced;
  const double t_begin = now_s();
  std::size_t phases = 0;
  while (runs.size() < kMinQueues || now_s() - t_begin < args.seconds ||
         (!args.trace && phases < kMinPhases)) {
    // The traced run alternates untraced and traced queues.
    const bool on = args.trace && runs.size() % 2 == 1;
    tracer.set_enabled(on);
    runs.push_back(run_queue(queue, profiles, opts, report));
    traced.push_back(on);
    setup_s.push_back(runs.back().setup_s);
    for (const auto& job : runs.back().result.jobs) {
      phases += job.replay.phases.size();
    }
  }
  tracer.set_enabled(false);
  delta.end();

  std::vector<double> phase_us, write_us, read_us, makespan, eq2;
  double wall[2] = {0.0, 0.0};
  double phases_n[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    const int t = traced[i] ? 1 : 0;
    wall[t] += r.wall_s;
    for (const auto& job : r.result.jobs) {
      phases_n[t] += static_cast<double>(job.replay.phases.size());
    }
    if (traced[i]) continue;
    makespan.push_back(r.result.makespan);
    eq2.push_back(r.result.aggregate_bw());
    for (const auto& job : r.result.jobs) {
      for (const auto& ph : job.replay.phases) {
        phase_us.push_back(ph.elapsed * 1e6);
        (ph.operation == workload::Operation::Write ? write_us : read_us)
            .push_back(ph.elapsed * 1e6);
      }
    }
  }

  const Quantiles q(phase_us);
  const double ops_per_s = ratio(phases_n[0], wall[0]);
  const std::string queues = count_note(makespan.size()) + " queues";
  report.e2e("setup_s", median_of(setup_s), "s",
             count_note(setup_s.size()) + " service constructions");
  report.info("ops_per_s", ops_per_s, "1/s",
             "I/O phases completed / wall, " + queues);
  report.e2e("op_p50_us", q.at(0.50), "us",
             "I/O phase, " + count_note(q.count()));
  report.info("op_p99_us", q.at(0.99), "us",
             "I/O phase, " + count_note(q.count()));
  report.e2e("write_p50_us", Quantiles(write_us).at(0.5), "us",
             "write phase, " + count_note(write_us.size()));
  report.e2e("read_p50_us", Quantiles(read_us).at(0.5), "us",
             "read phase, " + count_note(read_us.size()));
  report.info("makespan_s", median_of(makespan), "s", queues);
  report.info("aggregate_mbps", median_of(eq2), "MB/s", "Eq. 2, " + queues);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!args.trace) return report;

  const double n_queues = static_cast<double>(runs.size());
  const auto solve = delta.histogram("core.arbiter.solve_us");
  const double solves = delta.counter("core.arbiter.solves");
  const double remaps = delta.counter("fwd.client.remaps");
  const double polls = delta.counter("fwd.client.polls");
  report.layer("jobs.arbitrations", ratio(solves, n_queues), "count",
               "per queue, " + base(solves, n_queues));
  report.layer("jobs.remaps", ratio(remaps, n_queues), "count",
               "per queue, " + base(remaps, n_queues));
  report.layer("jobs.polls", ratio(polls, n_queues), "count",
               "per queue, " + base(polls, n_queues));
  report.layer("jobs.solve_mean_us", solve.mean(), "us",
               "histogram sum / count, n=" + std::to_string(solve.count));

  const double agios_req = delta.counter("agios.requests");
  const double merged = delta.counter("agios.merged_requests");
  const double agios_disp = delta.counter("agios.dispatches");
  report.layer("agios.merge_ratio", ratio(merged, agios_req), "ratio",
               base(merged, agios_req));
  report.layer("agios.dispatches_per_request", ratio(agios_disp, agios_req),
               "ratio", base(agios_disp, agios_req));

  const double reads_local = delta.counter("fwd.ion.reads_local");
  const double reads_pfs = delta.counter("fwd.ion.reads_pfs");
  const double coalesced = delta.counter("fwd.ion.flush_coalesced_extents");
  const double pfs_writes = delta.counter("fwd.pfs.write_ops");
  const auto wait = delta.histogram("fwd.ion.queue_wait_us");
  report.layer("fwd.ion.queue_wait_p99_us", wait.quantile(0.99),
               "us_log2_bound",
               "log2-bucket bound, n=" + std::to_string(wait.count));
  report.layer("fwd.ion.reads_local_frac",
               ratio(reads_local, reads_local + reads_pfs), "ratio",
               base(reads_local, reads_local + reads_pfs));
  report.layer("fwd.ion.completion_ring_full",
               delta.counter("fwd.ion.completion_ring_full"), "count");
  report.layer("fwd.ion.flush_coalesced_frac",
               ratio(coalesced, coalesced + pfs_writes), "ratio",
               base(coalesced, coalesced + pfs_writes) + " extents");
  report.layer("fwd.ion.flush_steals", delta.counter("fwd.ion.flush_steals"),
               "count");
  const auto dispatch_us = span_durations_us("dispatch");
  const auto flush_us = span_durations_us("flush");
  report.layer("fwd.ion.dispatch_span_us", median_of(dispatch_us), "us",
               count_note(dispatch_us.size()) + " spans");
  report.layer("fwd.ion.flush_span_us", median_of(flush_us), "us",
               count_note(flush_us.size()) + " spans");
  report.layer("fwd.client.retries", delta.counter("fwd.retries"), "count");
  report.layer("fwd.client.payload_heap_allocs",
               delta.counter("fwd.client.payload_allocs"), "count");
  report.layer("common.slab.exhausted",
               delta.counter("fwd.ion.slab.exhausted"), "count");

  const double traced_ops_per_s = ratio(phases_n[1], wall[1]);
  report.layer("telemetry.trace_overhead_frac",
               1.0 - ratio(traced_ops_per_s, ops_per_s), "ratio",
               "1 - " + base(traced_ops_per_s, ops_per_s) + " phases/s");
  return report;
}

}  // namespace perfbench
