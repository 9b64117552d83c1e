// arbiter_churn: the MCKP arbiter alone (core; the forwarding path is
// idle). About 2,000 running jobs with seeded concave curves over
// {0,1,2,4,8} IONs on a pool of 64, default ArbiterOptions (per-event
// re-solve as shipped). One closed-loop caller alternates job_finished
// and job_started; one op is one event call returning the new mapping.
//
// Every 16th event, outside the timed call, the published solution is
// checked against a fresh solve_mckp_dp over the same classes.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/arbiter.hpp"
#include "core/mckp.hpp"
#include "core/policies.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

using namespace iofa;

constexpr int kPool = 64;
constexpr int kJobs = 2000;
constexpr int kSetups = 3;
constexpr int kWarmupEvents = 32;
constexpr int kCheckEvery = 16;

/// Random concave curve over the standard options {0,1,2,4,8}; the
/// 0-ION direct option keeps every instance feasible.
platform::BandwidthCurve make_curve(Rng& rng) {
  const double direct = rng.uniform(1.0, 10.0);
  const double b1 = rng.uniform(50.0, 150.0);
  const double b2 = b1 * rng.uniform(1.4, 1.8);
  const double b4 = b2 * rng.uniform(1.3, 1.7);
  const double b8 = b4 * rng.uniform(1.2, 1.6);
  return platform::BandwidthCurve(
      {{0, direct}, {1, b1}, {2, b2}, {4, b4}, {8, b8}});
}

core::AppEntry make_app(Rng& rng, core::JobId id) {
  core::AppEntry app;
  app.label = "job" + std::to_string(id);
  app.compute_nodes = rng.uniform_int(16, 512);
  app.processes = app.compute_nodes * rng.uniform_int(8, 24);
  app.curve = make_curve(rng);
  return app;
}

core::ArbiterOptions arbiter_options() {
  core::ArbiterOptions opts;
  opts.pool = kPool;
  return opts;
}

/// The arbiter plus the benchmark's own mirror of the running curves
/// (the oracle's input) and the seeded event stream.
struct Bed {
  explicit Bed(std::uint64_t seed)
      : rng(seed),
        arbiter(std::make_shared<core::MckpPolicy>(), arbiter_options()) {
    for (int i = 0; i < kJobs; ++i) start_next();
  }

  /// One churn event; returns its latency (us). `started` reports the
  /// event kind.
  double event(bool& started) {
    started = (events++ % 2) == 1 || running.empty();
    if (!started) {
      const std::size_t k = rng.index(running.size());
      const core::JobId id = running[k];
      running[k] = running.back();
      running.pop_back();
      curves.erase(id);
      telemetry::ScopedSpan span("arbiter.job_finished", "perfbench");
      const double t0 = now_s();
      arbiter.job_finished(id);
      return (now_s() - t0) * 1e6;
    }
    return start_next();
  }

  double start_next() {
    const core::JobId id = next_id++;
    core::AppEntry app = make_app(rng, id);
    curves.emplace(id, app.curve);
    running.push_back(id);
    telemetry::ScopedSpan span("arbiter.job_started", "perfbench");
    const double t0 = now_s();
    arbiter.job_started(id, std::move(app));
    return (now_s() - t0) * 1e6;
  }

  /// Eq. 2 predicted aggregate bandwidth of the published counts.
  double published_value(Report& report) const {
    const auto& counts = arbiter.last_counts();
    if (counts.size() != curves.size()) {
      report.fail("arbiter counts cover " + std::to_string(counts.size()) +
                  " jobs, " + std::to_string(curves.size()) + " running");
      return 0.0;
    }
    double value = 0.0;
    int weight = 0;
    for (const auto& [id, n] : counts) {
      auto it = curves.find(id);
      if (it == curves.end()) {
        report.fail("arbiter published a finished job " + std::to_string(id));
        return 0.0;
      }
      value += it->second.at(n);
      weight += n;
    }
    if (weight > kPool) report.fail("arbiter exceeded the pool");
    return value;
  }

  /// The same classes, in key order, for a fresh solve.
  std::vector<core::MckpClass> classes() const {
    std::vector<core::MckpClass> out;
    out.reserve(curves.size());
    for (const auto& [id, curve] : curves) {
      core::MckpClass cls;
      for (int opt : curve.options()) {
        if (opt <= kPool) cls.push_back(core::MckpItem{opt, curve.at(opt)});
      }
      out.push_back(std::move(cls));
    }
    return out;
  }

  Rng rng;
  core::Arbiter arbiter;
  std::map<core::JobId, platform::BandwidthCurve> curves;
  std::vector<core::JobId> running;
  core::JobId next_id = 1;
  std::uint64_t events = 0;
};

}  // namespace

Report run_arbiter_churn(const Args& args) {
  Report report;
  auto& tracer = telemetry::Tracer::global();

  std::vector<double> setup_s;
  std::unique_ptr<Bed> bed;
  for (int i = 0; i < kSetups; ++i) {
    bed.reset();
    const double t0 = now_s();
    bed = std::make_unique<Bed>(args.seed);
    bool started = false;
    for (int e = 0; e < kWarmupEvents; ++e) bed->event(started);
    setup_s.push_back(now_s() - t0);
  }

  struct EventSample {
    double lat_us;
    double solve_us;
    double busy_s;  ///< loop time of the event, oracle check excluded
    bool started;
    bool traced;
  };
  std::vector<EventSample> samples;
  std::vector<double> fresh_us;  ///< fresh solve_mckp_dp wall time

  const int slices = args.trace ? 4 : 1;
  const double slice_s = (args.trace ? args.seconds * 0.8 : args.seconds) / slices;
  RegistryDelta delta;
  delta.begin();
  for (int k = 0; k < slices; ++k) {
    const bool traced = args.trace && k % 2 == 1;
    tracer.set_enabled(traced);
    const double end = now_s() + slice_s;
    while (now_s() < end) {
      const double t0 = now_s();
      bool started = false;
      const double lat = bed->event(started);
      const double solve_us = bed->arbiter.last_solve_seconds() * 1e6;
      samples.push_back({lat, solve_us, now_s() - t0, started, traced});
      ++report.attempted;
      if (samples.size() % kCheckEvery != 0) continue;
      // Oracle check, outside the timed call and the loop's busy time.
      const double value = bed->published_value(report);
      const auto classes = bed->classes();
      const double f0 = now_s();
      std::optional<core::MckpSolution> fresh;
      {
        telemetry::ScopedSpan span("mckp.fresh_dp", "perfbench");
        fresh = core::solve_mckp_dp(classes, kPool);
      }
      fresh_us.push_back((now_s() - f0) * 1e6);
      if (!fresh) {
        report.fail("fresh solve_mckp_dp found no feasible selection");
      } else if (std::abs(fresh->value - value) >
                 1e-9 * std::max(1.0, std::abs(fresh->value))) {
        report.fail("event " + std::to_string(samples.size()) +
                    ": published value " + std::to_string(value) +
                    " != fresh DP " + std::to_string(fresh->value));
      }
    }
  }
  tracer.set_enabled(false);
  delta.end();

  // End-to-end numbers: every untraced event.
  std::vector<double> lat, started_us, finished_us, solve;
  double busy = 0.0;
  double traced_n = 0.0, traced_busy = 0.0;
  double sum_event = 0.0, sum_solve = 0.0;
  for (const auto& s : samples) {
    sum_event += s.lat_us;
    sum_solve += s.solve_us;
    solve.push_back(s.solve_us);
    if (s.traced) {
      traced_n += 1.0;
      traced_busy += s.busy_s;
      continue;
    }
    lat.push_back(s.lat_us);
    (s.started ? started_us : finished_us).push_back(s.lat_us);
    busy += s.busy_s;
  }

  const Quantiles q(lat);
  const std::string events_n = count_note(q.count()) + " events";
  const double ops_per_s = ratio(static_cast<double>(q.count()), busy);
  report.e2e("setup_s", median_of(setup_s), "s",
             count_note(setup_s.size()) + ", " + std::to_string(kJobs) +
                 " job starts each");
  report.info("ops_per_s", ops_per_s, "1/s",
             events_n + ", oracle checks excluded");
  report.e2e("op_p50_us", q.at(0.50), "us", events_n);
  report.info("op_p99_us", q.at(0.99), "us", events_n);
  report.e2e("write_p50_us", median_of(started_us), "us",
             "job_started, " + count_note(started_us.size()) + " events");
  report.e2e("read_p50_us", median_of(finished_us), "us",
             "job_finished, " + count_note(finished_us.size()) + " events");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!args.trace) return report;

  const Quantiles qs(solve);
  const double solves = delta.counter("core.arbiter.solves");
  const double incremental = delta.counter("core.arbiter.incremental_solves");
  report.layer("core.arbiter.solve_p50_us", qs.at(0.5), "us",
               "last_solve_seconds(), " + count_note(qs.count()));
  report.layer("core.arbiter.solve_p99_us", qs.at(0.99), "us",
               count_note(qs.count()));
  report.layer("core.arbiter.solve_share", ratio(sum_solve, sum_event), "ratio",
               base(sum_solve, sum_event) + " us");
  report.layer("core.arbiter.incremental_frac", ratio(incremental, solves),
               "ratio", base(incremental, solves));
  report.layer("core.arbiter.full_fallbacks",
               delta.counter("core.arbiter.full_fallbacks"), "count");
  report.layer("core.mckp.fresh_dp_us", median_of(fresh_us), "us",
               count_note(fresh_us.size()) + " fresh solves");
  const double traced_ops_per_s = ratio(traced_n, traced_busy);
  report.layer("telemetry.trace_overhead_frac",
               1.0 - ratio(traced_ops_per_s, ops_per_s), "ratio",
               "1 - " + base(traced_ops_per_s, ops_per_s) + " events/s");
  return report;
}

}  // namespace perfbench
