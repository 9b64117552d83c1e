// The repository benchmark program: runs one workload, checks its
// outputs, prints every metric by name with its unit and base, and ends
// standard output with one JSON line
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// holding the end-to-end metrics (untraced run) or the per-layer
// metrics this workload measures (--trace 1). Exits non-zero when any
// check failed. BENCHMARK.json is the one list of metric names and
// units; run.py checks the output against it.
//
// Usage: iofa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--trace-out FILE]

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Report;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "iofa_perfbench: " << why
            << "\nusage: iofa_perfbench --workload "
               "fwd_tcp_small|fwd_tcp_read|arbiter_churn|live_queue|"
               "fwd_inproc_rw|fwd_inproc_small "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        a.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        a.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (arg == "--trace-out") {
        a.trace_out = val;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A non-finite value is a benchmark failure; it is reported as 0.
/// Names and units are checked against BENCHMARK.json by run.py.
void check_finite(std::vector<Metric>& metrics, Report& report) {
  for (auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      report.fail(m.name + " is not finite");
      m.value = 0.0;
    }
  }
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const auto& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit;
    if (!m.note.empty()) std::cout << "  [" << m.note << "]";
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report report;
  try {
    if (args.workload == "fwd_inproc_rw") {
      report = perfbench::run_fwd_inproc_rw(args);
    } else if (args.workload == "fwd_tcp_read") {
      report = perfbench::run_fwd_tcp_read(args);
    } else if (args.workload == "fwd_inproc_small") {
      report = perfbench::run_fwd_inproc_small(args);
    } else if (args.workload == "fwd_tcp_small") {
      report = perfbench::run_fwd_tcp_small(args);
    } else if (args.workload == "arbiter_churn") {
      report = perfbench::run_arbiter_churn(args);
    } else if (args.workload == "live_queue") {
      report = perfbench::run_live_queue(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "iofa_perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  check_finite(report.end_to_end, report);
  check_finite(report.per_layer, report);
  const auto& e2e = report.end_to_end;
  const auto& layers = report.per_layer;
  if (report.attempted == 0) report.fail("no operation was attempted");

  if (args.trace && !args.trace_out.empty()) {
    if (perfbench::write_trace(args.trace_out)) {
      std::cout << "chrome trace: " << args.trace_out << "\n";
    } else {
      report.fail("cannot write chrome trace " + args.trace_out);
    }
  }

  std::cout << "workload " << args.workload << " seed " << args.seed
            << " seconds " << number(args.seconds) << " trace "
            << (args.trace ? 1 : 0) << "\n";
  print_table("end-to-end:", e2e);
  print_table("end-to-end, reported but not gated:", report.reported);
  if (args.trace) print_table("per-layer:", layers);
  std::cout << "error_rate = "
            << number(perfbench::ratio(static_cast<double>(report.failed),
                                       static_cast<double>(report.attempted)))
            << "  [" << report.failed << " failed / " << report.attempted
            << " attempted]\n";
  for (const auto& e : report.errors) std::cout << "  error: " << e << "\n";

  const bool correct = report.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  const auto& out = args.trace ? layers : e2e;
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Names and units are fixed identifiers: nothing to escape.
    std::cout << (i ? ", " : "") << "\"" << out[i].name
              << "\": {\"value\": " << number(out[i].value) << ", \"unit\": \""
              << out[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
