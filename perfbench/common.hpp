#pragma once
// Shared plumbing of the repository benchmark: the report every
// workload fills, exact-sample percentiles, registry deltas around a
// measured region, and the seeded block pattern the forwarding
// workloads write and check.
//
// Layers are measured from outside: the benchmark times its own calls
// into public entry points and reads the counters the runtime already
// registers in telemetry::Registry::global().

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace JSON destination for the traced run.
  std::string trace_out;
};

/// One reported number. `note` carries the sample count or the base of
/// a ratio, printed beside the value.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Printed with the end-to-end metrics but never in the JSON result:
  /// figures BENCHMARK.json does not gate. Tail latency and closed-loop
  /// throughput (clients / mean latency) follow vCPU steal on a shared
  /// host from run to run; the live queue's makespan and Eq. 2
  /// bandwidth mean something on that workload only.
  std::vector<Metric> reported;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions (printed; never in the JSON line).
  std::vector<std::string> errors;

  void e2e(std::string name, double value, std::string unit,
           std::string note = {});
  void layer(std::string name, double value, std::string unit,
             std::string note = {});
  void info(std::string name, double value, std::string unit,
            std::string note = {});
  /// Count one failed check and remember its description.
  void fail(const std::string& why);
};

/// Workload entry points (fwd.cpp, arbiter.cpp, live.cpp).
Report run_fwd_inproc_rw(const Args& args);
Report run_fwd_tcp_small(const Args& args);
Report run_fwd_inproc_small(const Args& args);
Report run_fwd_tcp_read(const Args& args);
Report run_arbiter_churn(const Args& args);
Report run_live_queue(const Args& args);

// --- measurement helpers ---------------------------------------------------

/// Exact quantiles over a sample, sorted once.
class Quantiles {
 public:
  explicit Quantiles(std::vector<double> sample);
  /// Linear interpolation between closest ranks; 0 for an empty sample.
  double at(double q) const;
  std::size_t count() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

double median_of(std::vector<double> sample);

/// One timed op of a closed-loop client.
struct OpSample {
  double t_end = 0.0;  ///< now_s() at completion
  double lat_us = 0.0;
  bool write = false;
};

/// End-to-end figures over every op completing inside the given
/// intervals: exact per-op quantiles and the whole-interval rate.
struct OpSummary {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double write_p50_us = 0.0;
  double read_p50_us = 0.0;
  std::size_t samples = 0;
  std::size_t writes = 0;
  std::size_t reads = 0;
};

OpSummary summarise(const std::vector<OpSample>& samples,
                    const std::vector<std::pair<double, double>>& intervals);

/// Seconds since an arbitrary fixed point (iofa::monotonic_seconds).
double now_s();

/// Process peak resident set size (VmHWM), MiB.
double peak_rss_mb();

/// Registry snapshots taken around a measured region.
class RegistryDelta {
 public:
  void begin();
  void end();
  /// Sum over every label set of a counter's growth across the region.
  double counter(const std::string& name) const;
  /// A histogram's growth across the region, merged over label sets.
  iofa::telemetry::HistogramSnapshot histogram(const std::string& name) const;

 private:
  iofa::telemetry::Snapshot before_;
  iofa::telemetry::Snapshot after_;
};

/// A counter's process-lifetime total, summed over label sets.
double registry_total(const std::string& name);

/// "a / b" with b == 0 reading as 0.
double ratio(double a, double b);
/// "12 / 345" base annotation for a ratio.
std::string base(double num, double den);
std::string count_note(std::size_t n);

/// Durations (us) of every buffered tracer span with this name.
std::vector<double> span_durations_us(const char* name);
/// Write the global tracer as Chrome-trace JSON; false on I/O error.
bool write_trace(const std::string& path);

/// Overload accounting identity over a region (fwd/overload.hpp):
/// submitted == admitted + rejected + expired + direct_fallback +
/// failed. Records a failure in `report` when it does not hold.
void check_overload_identity(const RegistryDelta& delta, Report& report);

// --- seeded block pattern --------------------------------------------------

/// 64-bit mix of the pattern key parts (SplitMix64 finaliser chain).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Fill `out` (a multiple of 8 bytes) with the pattern of `key`.
void fill_pattern(std::uint64_t key, std::byte* out, std::size_t bytes);
/// True when `in` holds exactly the pattern of `key`.
bool check_pattern(std::uint64_t key, const std::byte* in, std::size_t bytes);

}  // namespace perfbench
