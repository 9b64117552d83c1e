// Transport cost of the explicit RPC boundary (PR 10): the same
// single-ION write workload driven through each Client <-> IonDaemon
// transport - the in-proc direct port (zero overhead, the baseline the
// refactor must preserve), the shared-memory frame ring, and the
// loopback TCP socket pair. Reported per transport: acknowledged write
// round-trip latency (p50 / p99, the pwrite call including completion)
// and sustained ops/s, plus the frame counters so a run shows the
// framed paths really moved frames (and the in-proc path moved none).
// Every transport runs twice: under the default TO-AGG scheduler, whose
// 1 ms aggregation window holds each lone write, and with FIFO pinned,
// so the seam's own cost is reported apart from that modelled hold.
//
// Usage: bench_rpc_transport [--quick] [--out FILE]
//   --quick  1/8th of the ops (CI smoke); same seed and shape
//   --out    JSON results path (default BENCH_rpc_transport.json)

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/clock.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "agios/scheduler.hpp"
#include "fwd/client.hpp"
#include "fwd/service.hpp"
#include "rpc/options.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace iofa;

constexpr std::uint64_t kSeed = 1337;
constexpr std::uint64_t kBlock = 16 * KiB;
constexpr std::uint64_t kChunk = 512 * KiB;
constexpr core::JobId kJob = 1;

struct TransportResult {
  std::string name;
  std::string scheduler;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double ops_per_s = 0.0;
  double frames = 0.0;  ///< rpc.frames_sent, both directions
};

double counter_sum(telemetry::Registry& reg, const std::string& name) {
  double total = 0.0;
  for (const auto& s : reg.snapshot().samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

TransportResult run_transport(rpc::TransportKind kind,
                              agios::SchedulerKind scheduler, int ops) {
  telemetry::Registry reg;
  fwd::ServiceConfig cfg;
  cfg.ion_count = 1;
  cfg.pfs.write_bandwidth = 8.0e9;
  cfg.pfs.read_bandwidth = 8.0e9;
  cfg.pfs.op_overhead = 4 * KiB;
  cfg.pfs.contention_coeff = 0.0;
  cfg.pfs.store_data = false;
  cfg.pfs.registry = &reg;
  cfg.ion.ingest_bandwidth = 8.0e9;
  cfg.ion.op_overhead = 4 * KiB;
  cfg.ion.store_data = false;
  cfg.ion.registry = &reg;
  cfg.ion.scheduler.kind = scheduler;
  cfg.transport = kind;
  cfg.rpc_seed = kSeed;
  fwd::ForwardingService service(cfg);

  core::Mapping m;
  m.epoch = 1;
  m.pool = 1;
  m.jobs[kJob] = core::Mapping::Entry{"bench", {0}, false};
  service.apply_mapping(m);

  fwd::ClientConfig cc;
  cc.job = kJob;
  cc.app_label = "bench";
  cc.poll_period = 1.0;  // one mapping fetch, then cached
  cc.registry = &reg;
  fwd::Client client(cc, service);

  const std::vector<std::byte> data(kBlock, std::byte{0x5A});
  // Warm-up: slab pool, path interning, mapping fetch.
  for (int i = 0; i < 32; ++i) {
    client.pwrite(0, "/bench", static_cast<std::uint64_t>(i) * kChunk,
                  kBlock, data);
  }

  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(ops));
  const double t_begin = monotonic_seconds();
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t off =
        static_cast<std::uint64_t>(i % 1024) * kChunk;
    const double t0 = monotonic_seconds();
    const auto n = client.pwrite(0, "/bench", off, kBlock, data);
    lat_us.push_back((monotonic_seconds() - t0) * 1e6);
    if (n != kBlock) {
      std::cerr << "short write on " << rpc::to_string(kind) << "\n";
      std::exit(2);
    }
  }
  const double elapsed = monotonic_seconds() - t_begin;
  service.drain();

  TransportResult r;
  r.name = rpc::to_string(kind);
  r.scheduler = agios::to_string(scheduler);
  r.p50_us = percentile(lat_us, 0.50);
  r.p99_us = percentile(lat_us, 0.99);
  r.ops_per_s = static_cast<double>(ops) / elapsed;
  r.frames = counter_sum(reg, "rpc.frames_sent");
  service.shutdown();
  return r;
}

std::string fixed_str(double v, int prec = 1) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(prec);
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  int ops = 4000;
  std::string out_path = "BENCH_rpc_transport.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      ops /= 8;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  bench::banner("RPC transport cost", "DESIGN.md transport model",
                "acknowledged 16 KiB write round-trips over each "
                "Client <-> ION transport, single ION");

  const rpc::TransportKind kinds[] = {rpc::TransportKind::kInProc,
                                      rpc::TransportKind::kShmRing,
                                      rpc::TransportKind::kTcp};
  const agios::SchedulerKind schedulers[] = {
      agios::SchedulerKind::TimeWindowAggregation,
      agios::SchedulerKind::Fifo};
  std::vector<TransportResult> results;
  for (const auto scheduler : schedulers) {
    for (const auto kind : kinds) {
      results.push_back(run_transport(kind, scheduler, ops));
    }
  }

  Table table(
      {"transport", "scheduler", "p50_us", "p99_us", "ops/s", "frames"});
  for (const auto& r : results) {
    table.add_row({r.name, r.scheduler, fixed_str(r.p50_us),
                   fixed_str(r.p99_us), fixed_str(r.ops_per_s, 0),
                   fixed_str(r.frames, 0)});
  }
  table.print(std::cout);

  // The in-proc baseline must stay frameless: the refactor's
  // zero-overhead claim is that the direct port IS the old call path.
  for (const auto& r : results) {
    if (r.name == rpc::to_string(rpc::TransportKind::kInProc) &&
        r.frames != 0.0) {
      std::cerr << "in-proc path moved frames; the direct port regressed\n";
      return 3;
    }
  }

  std::ofstream out(out_path);
  out << "{\n  \"ops\": " << ops << ",\n  \"transports\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"scheduler\": \""
        << r.scheduler << "\", \"p50_us\": " << r.p50_us
        << ", \"p99_us\": " << r.p99_us << ", \"ops_per_s\": "
        << r.ops_per_s << ", \"frames\": " << r.frames << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nresults written: " << out_path << "\n";
  return 0;
}
