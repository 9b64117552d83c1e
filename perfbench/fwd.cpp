// Forwarding-path workloads: closed-loop client threads driving one
// job through the GekkoFWD client shim, ION daemons and the emulated
// PFS, with every read checked against a seeded per-block generation
// pattern.
//
//   fwd_tcp_small     1 ION over the TCP loopback transport, 4 KiB ops:
//                     per-op cost is the RPC seam.
//   fwd_tcp_read      the same path with 10/90 writes/reads: most frames
//                     are read responses carrying data.
//   fwd_inproc_rw     2 IONs (2 workers each), in-proc ports, 64 KiB ops
//                     with 1 in 8 a chunk-aligned 1 MiB op spanning two
//                     chunks; the RPC codec is never on the path.
//   fwd_inproc_small  1 ION with 1 worker, in-proc ports, 4 KiB ops.
//
// All run FIFO with modelled delays off (infinite PFS/ION bandwidth,
// op_overhead = 0, dispatch_latency = 0) and store_data on, so the
// numbers are real CPU and wake-up cost. The working set is bounded:
// each thread overwrites a fixed set of blocks in its own files.

#include <array>
#include <atomic>
#include <cstring>
#include <future>
#include <latch>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/slab_pool.hpp"
#include "fwd/client.hpp"
#include "fwd/service.hpp"
#include "gkfs/chunk.hpp"
#include "rpc/codec.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

using namespace iofa;

struct FwdShape {
  const char* name;
  int ions;
  int workers;  ///< dispatch workers per ION
  rpc::TransportKind transport;
  std::uint64_t block;  ///< small-op size and pattern granularity
  int blocks_per_file;
  int large_blocks;  ///< blocks per large op; 0 = no large ops
  int large_one_in;  ///< 1 in N ops is large
  double write_share;  ///< share of ops that are writes
};

constexpr int kThreads = 2;
constexpr int kFiles = 8;  ///< per thread
constexpr int kWarmupOps = 256;  ///< per thread, before timing
constexpr int kSetups = 5;
constexpr core::JobId kJob = 1;

struct Op {
  bool write = false;
  int file = 0;
  int first = 0;   ///< first block
  int blocks = 1;  ///< contiguous blocks covered
};

/// The seeded op stream of one client thread.
class OpStream {
 public:
  OpStream(const FwdShape& shape, std::uint64_t seed)
      : shape_(shape), rng_(seed) {}

  Op next() {
    Op op;
    op.write = rng_.uniform01() < shape_.write_share;
    op.file = rng_.uniform_int(0, kFiles - 1);
    if (shape_.large_blocks > 0 &&
        rng_.index(static_cast<std::size_t>(shape_.large_one_in)) == 0) {
      // Chunk-aligned, so the op covers exactly large_blocks *
      // block / kChunkSize chunks and the client scatters it.
      const int chunk_blocks =
          static_cast<int>(gkfs::kChunkSize / shape_.block);
      const int starts =
          (shape_.blocks_per_file - shape_.large_blocks) / chunk_blocks + 1;
      op.first = rng_.uniform_int(0, starts - 1) * chunk_blocks;
      op.blocks = shape_.large_blocks;
    } else {
      op.first = rng_.uniform_int(0, shape_.blocks_per_file - 1);
    }
    return op;
  }

 private:
  const FwdShape& shape_;
  Rng rng_;
};

fwd::ServiceConfig service_config(const FwdShape& shape, std::uint64_t seed) {
  fwd::ServiceConfig cfg;
  cfg.ion_count = shape.ions;
  cfg.pfs.write_bandwidth = 1.0e15;
  cfg.pfs.read_bandwidth = 1.0e15;
  cfg.pfs.op_overhead = 0;
  cfg.pfs.contention_coeff = 0.0;
  cfg.pfs.store_data = true;
  cfg.ion.ingest_bandwidth = 1.0e15;
  cfg.ion.op_overhead = 0;
  cfg.ion.store_data = true;
  cfg.ion.workers = shape.workers;
  cfg.ion.scheduler.kind = agios::SchedulerKind::Fifo;
  cfg.transport = shape.transport;
  cfg.rpc_seed = seed;
  return cfg;
}

fwd::ClientConfig client_config() {
  fwd::ClientConfig cc;
  cc.job = kJob;
  cc.app_label = "perfbench";
  cc.poll_period = 3600.0;  // one mapping fetch (warm-up), then cached
  cc.store_data = true;
  return cc;
}

/// A closed-loop client thread's files, block generations and records.
struct Loader {
  int index = 0;
  std::uint64_t seed = 0;
  std::vector<std::string> paths;
  std::vector<std::vector<std::uint32_t>> gen;  ///< [file][block]
  std::vector<std::byte> buf;
  std::vector<OpSample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  std::uint64_t key(int file, int block) const {
    return mix(mix(mix(seed, static_cast<std::uint64_t>(index * kFiles + file)),
                   static_cast<std::uint64_t>(block)),
               gen[static_cast<std::size_t>(file)]
                  [static_cast<std::size_t>(block)]);
  }

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 4) errors.push_back(why);
  }
};

/// One set-up of the workload: service, client, mapping, files.
class Bed {
 public:
  Bed(const FwdShape& shape, std::uint64_t seed)
      : shape_(shape),
        service_(service_config(shape, seed)),
        client_(client_config(), service_) {
    core::Mapping m;
    m.epoch = 1;
    m.pool = shape.ions;
    core::Mapping::Entry entry;
    entry.app_label = "perfbench";
    for (int i = 0; i < shape.ions; ++i) entry.ions.push_back(i);
    m.jobs[kJob] = entry;
    service_.apply_mapping(m);
    const std::size_t max_op =
        static_cast<std::size_t>(shape.blocks_per_file) * shape.block;
    for (int t = 0; t < kThreads; ++t) {
      Loader& l = loaders_[static_cast<std::size_t>(t)];
      l.index = t;
      l.seed = mix(seed, 0x5EED0000ULL + static_cast<std::uint64_t>(t));
      l.buf.resize(max_op);
      for (int f = 0; f < kFiles; ++f) {
        l.paths.push_back(std::string("/perfbench/") + shape.name + "/t" +
                          std::to_string(t) + "/f" + std::to_string(f));
        l.gen.emplace_back(static_cast<std::size_t>(shape.blocks_per_file),
                           0U);
      }
    }
  }

  ~Bed() { stop(); }

  Bed(const Bed&) = delete;
  Bed& operator=(const Bed&) = delete;

  /// Write every block once (generation 1) so reads always hit data.
  void prefill() {
    for (auto& l : loaders_) {
      for (int f = 0; f < kFiles; ++f) {
        run_op(l, Op{true, f, 0, shape_.blocks_per_file}, nullptr);
      }
    }
  }

  /// Start the load threads; each runs its warm-up ops and parks.
  void start() {
    for (auto& l : loaders_) {
      threads_.emplace_back([this, &l] { thread_main(l); });
    }
    warmed_.wait();
  }

  /// Release the parked threads into the timed loop.
  void go() {
    phase_.store(kRunning);
    phase_.notify_all();
  }

  /// Stop and join the load threads (idempotent).
  void stop() {
    phase_.store(kStopped);
    phase_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  fwd::ForwardingService& service() { return service_; }
  fwd::Client& client() { return client_; }
  std::array<Loader, kThreads>& loaders() { return loaders_; }
  const FwdShape& shape() const { return shape_; }

  /// Issue one op through the client and check it; records a sample
  /// when `out` is set.
  void run_op(Loader& l, const Op& op, std::vector<OpSample>* out) {
    const std::uint64_t off = static_cast<std::uint64_t>(op.first) * shape_.block;
    const std::uint64_t size = static_cast<std::uint64_t>(op.blocks) * shape_.block;
    const std::string& path = l.paths[static_cast<std::size_t>(op.file)];
    auto& gen = l.gen[static_cast<std::size_t>(op.file)];
    const std::span<std::byte> buf(l.buf.data(), size);
    ++l.attempted;
    double t0 = 0.0;
    double t1 = 0.0;
    std::size_t n = 0;
    if (op.write) {
      for (int b = 0; b < op.blocks; ++b) {
        ++gen[static_cast<std::size_t>(op.first + b)];
        fill_pattern(l.key(op.file, op.first + b),
                     buf.data() + static_cast<std::size_t>(b) * shape_.block,
                     shape_.block);
      }
      telemetry::ScopedSpan span("client.pwrite", "perfbench", "bytes",
                                 static_cast<std::int64_t>(size));
      t0 = now_s();
      n = client_.pwrite(0, path, off, size, buf);
      t1 = now_s();
    } else {
      telemetry::ScopedSpan span("client.pread", "perfbench", "bytes",
                                 static_cast<std::int64_t>(size));
      t0 = now_s();
      n = client_.pread(0, path, off, size, buf);
      t1 = now_s();
    }
    if (n != size) {
      l.fail(std::string(op.write ? "short write " : "short read ") + path +
             " @" + std::to_string(off) + ": " + std::to_string(n) + "/" +
             std::to_string(size));
    } else if (!op.write) {
      for (int b = 0; b < op.blocks; ++b) {
        if (!check_pattern(l.key(op.file, op.first + b),
                           buf.data() + static_cast<std::size_t>(b) * shape_.block,
                           shape_.block)) {
          l.fail("read of " + path + " block " +
                 std::to_string(op.first + b) +
                 " does not hold generation " +
                 std::to_string(gen[static_cast<std::size_t>(op.first + b)]));
          break;
        }
      }
    }
    if (out) {
      out->push_back(OpSample{t1, (t1 - t0) * 1e6, op.write});
    }
  }

 private:
  static constexpr int kWarming = 0;
  static constexpr int kRunning = 1;
  static constexpr int kStopped = 2;

  void thread_main(Loader& l) {
    OpStream ops(shape_, mix(l.seed, 0x0B5ULL));
    for (int i = 0; i < kWarmupOps; ++i) run_op(l, ops.next(), nullptr);
    warmed_.count_down();
    phase_.wait(kWarming);
    l.samples.reserve(1 << 18);
    while (phase_.load(std::memory_order_relaxed) == kRunning) {
      run_op(l, ops.next(), &l.samples);
    }
  }

  const FwdShape& shape_;
  fwd::ForwardingService service_;
  fwd::Client client_;
  std::array<Loader, kThreads> loaders_;
  std::atomic<int> phase_{kWarming};
  std::latch warmed_{kThreads};
  std::vector<std::thread> threads_;
};

// --- traced-run ladder -----------------------------------------------------

struct LadderSamples {
  std::vector<double> client, port, daemon, pfs;
  std::vector<double> pfs_write, pfs_read;
};

/// Submit one op's chunk slices to `submit` (a port or a daemon) the way
/// the client scatters them, and wait for every completion.
template <typename SubmitFn>
bool submit_slices(fwd::ForwardingService& service, const std::string& path,
                   const Op& op, std::uint64_t off, std::uint64_t size,
                   std::span<const std::byte> data, SubmitFn submit) {
  const std::uint64_t id = gkfs::hash_path(path);
  const auto ions = static_cast<std::size_t>(service.ion_count());
  std::vector<std::future<std::size_t>> futs;
  for (const auto& slice : gkfs::split_range(off, size)) {
    fwd::FwdRequest req;
    req.op = op.write ? fwd::FwdOp::Write : fwd::FwdOp::Read;
    req.path = path;
    req.file_id = id;
    req.offset = slice.file_offset;
    req.size = slice.size;
    req.payload = service.acquire_payload(slice.size);
    if (op.write) {
      std::memcpy(req.payload.span().data(),
                  data.data() + (slice.file_offset - off), slice.size);
    }
    req.done = std::make_shared<std::promise<std::size_t>>();
    futs.push_back(req.done->get_future());
    const int ion = static_cast<int>(gkfs::daemon_of(id, slice.chunk, ions));
    if (submit(ion, std::move(req)) != fwd::SubmitResult::kAccepted) {
      return false;
    }
  }
  try {
    for (auto& f : futs) f.get();
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// Replay a seeded op stream down the entry points, top to bottom:
/// Client::pwrite/pread -> ion_port(i).try_submit -> daemon(i).try_submit
/// -> EmulatedPfs::write/read. Runs on its own files after the measured
/// region, for at least min_ops ops and until `budget_s` has passed.
LadderSamples run_ladder(Bed& bed, std::uint64_t seed, double budget_s,
                         Report& report) {
  const FwdShape& shape = bed.shape();
  auto& service = bed.service();
  auto& client = bed.client();
  std::vector<std::string> paths;
  std::vector<std::byte> buf(static_cast<std::size_t>(shape.blocks_per_file) *
                             shape.block);
  fill_pattern(mix(seed, 0x1ADDE4ULL), buf.data(), buf.size());
  for (int f = 0; f < kFiles; ++f) {
    paths.push_back(std::string("/perfbench/") + shape.name + "/ladder/f" +
                    std::to_string(f));
    client.pwrite(0, paths.back(), 0, buf.size(), buf);
  }
  constexpr int kMinOps = 1000;
  constexpr int kMaxOps = 20000;
  OpStream ops(shape, mix(seed, 0x1ADDE5ULL));
  LadderSamples s;
  const double deadline = now_s() + budget_s;
  for (int i = 0; i < kMaxOps && (i < kMinOps || now_s() < deadline); ++i) {
    const Op op = ops.next();
    const std::string& path = paths[static_cast<std::size_t>(op.file)];
    const std::uint64_t off = static_cast<std::uint64_t>(op.first) * shape.block;
    const std::uint64_t size = static_cast<std::uint64_t>(op.blocks) * shape.block;
    const std::span<std::byte> data(buf.data(), size);

    auto client_rung = [&] {
      telemetry::ScopedSpan span("ladder.client", "perfbench");
      const double t0 = now_s();
      const std::size_t n = op.write ? client.pwrite(0, path, off, size, data)
                                     : client.pread(0, path, off, size, data);
      s.client.push_back((now_s() - t0) * 1e6);
      if (n != size) report.fail("ladder client op short on " + path);
    };
    auto port_rung = [&] {
      telemetry::ScopedSpan span("ladder.port", "perfbench");
      const double t0 = now_s();
      const bool ok = submit_slices(
          service, path, op, off, size, data,
          [&](int ion, fwd::FwdRequest req) {
            return service.ion_port(ion).try_submit(std::move(req));
          });
      s.port.push_back((now_s() - t0) * 1e6);
      if (!ok) report.fail("ladder port submit failed on " + path);
    };
    auto daemon_rung = [&] {
      telemetry::ScopedSpan span("ladder.daemon", "perfbench");
      const double t0 = now_s();
      const bool ok = submit_slices(
          service, path, op, off, size, data,
          [&](int ion, fwd::FwdRequest req) {
            return service.daemon(ion).try_submit(std::move(req));
          });
      s.daemon.push_back((now_s() - t0) * 1e6);
      if (!ok) report.fail("ladder daemon submit failed on " + path);
    };
    auto pfs_rung = [&] {
      telemetry::ScopedSpan span("ladder.pfs", "perfbench");
      const double t0 = now_s();
      for (const auto& slice : gkfs::split_range(off, size)) {
        const auto part = data.subspan(slice.file_offset - off, slice.size);
        if (op.write) {
          if (!service.pfs().write(path, slice.file_offset, slice.size, part)) {
            report.fail("ladder pfs write failed on " + path);
          }
        } else {
          service.pfs().read(path, slice.file_offset, slice.size, part);
        }
      }
      const double us = (now_s() - t0) * 1e6;
      s.pfs.push_back(us);
      (op.write ? s.pfs_write : s.pfs_read).push_back(us);
    };
    // Rotate which rung goes first, so no rung always runs right after
    // the same neighbour (the framed path's reaper phase, cache state).
    for (int r = 0; r < 4; ++r) {
      switch ((i + r) % 4) {
        case 0: client_rung(); break;
        case 1: port_rung(); break;
        case 2: daemon_rung(); break;
        default: pfs_rung(); break;
      }
    }
  }
  service.drain();
  return s;
}

/// Mean ns per frame to encode / decode the frames the op stream puts on
/// a framed transport: request (write payload), ack, response (read
/// data) per chunk slice. Median over batches.
std::pair<double, double> time_codec(const FwdShape& shape, std::uint64_t seed,
                                     double& frames_per_batch,
                                     Report& report) {
  constexpr int kOps = 512;
  constexpr int kBatches = 7;
  OpStream ops(shape, mix(seed, 0xC0DECULL));
  std::vector<rpc::SubmitRequestMsg> reqs;
  std::vector<rpc::SubmitResponseMsg> rsps;
  for (int i = 0; i < kOps; ++i) {
    const Op op = ops.next();
    const std::uint64_t off = static_cast<std::uint64_t>(op.first) * shape.block;
    const std::uint64_t size = static_cast<std::uint64_t>(op.blocks) * shape.block;
    for (const auto& slice : gkfs::split_range(off, size)) {
      rpc::SubmitRequestMsg req;
      req.op = op.write ? rpc::WireOp::kWrite : rpc::WireOp::kRead;
      req.file_id = static_cast<std::uint64_t>(op.file);
      req.offset = slice.file_offset;
      req.size = slice.size;
      req.path = "/perfbench/codec/f" + std::to_string(op.file);
      rpc::SubmitResponseMsg rsp;
      rsp.value = slice.size;
      if (op.write) {
        req.payload.assign(slice.size, std::byte{0x5A});
      } else {
        rsp.data.assign(slice.size, std::byte{0xA5});
      }
      reqs.push_back(std::move(req));
      rsps.push_back(std::move(rsp));
    }
  }
  const rpc::SubmitAckMsg ack{rpc::WireSubmitResult::kAccepted};
  frames_per_batch = static_cast<double>(reqs.size() * 3);
  std::vector<double> enc_ns, dec_ns;
  for (int b = 0; b < kBatches; ++b) {
    std::uint64_t ids = 0;
    std::vector<std::vector<std::byte>> frames;
    frames.reserve(reqs.size() * 3);
    {
      telemetry::ScopedSpan span("rpc.encode_batch", "perfbench");
      const double t0 = now_s();
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        frames.push_back(rpc::encode(3 * i, reqs[i]));
        frames.push_back(rpc::encode(3 * i + 1, ack));
        frames.push_back(rpc::encode(3 * i + 2, rsps[i]));
      }
      enc_ns.push_back((now_s() - t0) * 1e9 / frames_per_batch);
    }
    {
      telemetry::ScopedSpan span("rpc.decode_batch", "perfbench");
      const double t0 = now_s();
      for (const auto& f : frames) ids += rpc::decode(f).request_id;
      dec_ns.push_back((now_s() - t0) * 1e9 / frames_per_batch);
    }
    // Round-trip check: the decoded ids are 0 .. frames-1.
    const std::uint64_t n = frames.size();
    if (ids != n * (n - 1) / 2) report.fail("codec round trip lost request ids");
  }
  return {median_of(enc_ns), median_of(dec_ns)};
}

/// Mean ns per try_acquire + release pair over the op stream's slice
/// sizes on the service's own slab pool. Median over batches.
double time_slab(fwd::ForwardingService& service, const FwdShape& shape,
                 std::uint64_t seed) {
  constexpr int kPairs = 20000;
  constexpr int kBatches = 7;
  OpStream ops(shape, mix(seed, 0x51ABULL));
  std::vector<std::size_t> sizes;
  while (sizes.size() < static_cast<std::size_t>(kPairs)) {
    const Op op = ops.next();
    const std::uint64_t off = static_cast<std::uint64_t>(op.first) * shape.block;
    const std::uint64_t size = static_cast<std::uint64_t>(op.blocks) * shape.block;
    for (const auto& slice : gkfs::split_range(off, size)) {
      sizes.push_back(slice.size);
    }
  }
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = now_s();
    for (std::size_t sz : sizes) {
      Payload p = service.slab_pool().try_acquire(sz);
      p.reset();
    }
    ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(sizes.size()));
  }
  return median_of(ns);
}

// --- the workload ----------------------------------------------------------

Report run_fwd(const FwdShape& shape, const Args& args) {
  Report report;
  auto& tracer = telemetry::Tracer::global();

  // Set up kSetups times (service, client, mapping fetch, files, slab
  // arena, interned paths, started and warmed load threads; for TCP the
  // connection) and keep the last bed.
  std::vector<double> setup_s;
  std::unique_ptr<Bed> bed;
  for (int i = 0; i < kSetups; ++i) {
    if (bed) bed->stop();
    bed.reset();
    const double t0 = now_s();
    bed = std::make_unique<Bed>(shape, args.seed);
    bed->prefill();
    bed->start();
    setup_s.push_back(now_s() - t0);
  }

  // Measured region. The untraced run is one slice; the traced run
  // alternates untraced and traced slices so tracing overhead is
  // measured on the same warm bed.
  const int slices = args.trace ? 6 : 1;
  const double measure_s = args.trace ? args.seconds * 0.6 : args.seconds;
  RegistryDelta delta;
  delta.begin();
  std::vector<double> edges;
  edges.push_back(now_s());
  bed->go();
  for (int k = 0; k < slices; ++k) {
    tracer.set_enabled(args.trace && k % 2 == 1);
    sleep_for_seconds(measure_s / slices);
    edges.push_back(now_s());
  }
  tracer.set_enabled(false);
  bed->stop();
  bed->service().drain();
  delta.end();

  for (auto& l : bed->loaders()) {
    report.attempted += l.attempted;
    report.failed += l.failed;
    report.errors.insert(report.errors.end(), l.errors.begin(), l.errors.end());
  }
  check_overload_identity(delta, report);

  // End-to-end numbers: every op of the untraced slices. The traced
  // slices only feed the overhead ratio.
  std::vector<OpSample> all;
  for (auto& l : bed->loaders()) {
    all.insert(all.end(), l.samples.begin(), l.samples.end());
  }
  std::vector<std::pair<double, double>> untraced, traced;
  for (int k = 0; k < slices; ++k) {
    (k % 2 == 1 ? traced : untraced)
        .emplace_back(edges[static_cast<std::size_t>(k)],
                      edges[static_cast<std::size_t>(k) + 1]);
  }
  const OpSummary w = summarise(all, untraced);
  const std::string ops_n = count_note(w.samples) + " ops";
  report.e2e("setup_s", median_of(setup_s), "s", count_note(setup_s.size()));
  report.info("ops_per_s", w.ops_per_s, "1/s", ops_n);
  report.e2e("op_p50_us", w.p50_us, "us", ops_n);
  report.info("op_p99_us", w.p99_us, "us", ops_n);
  report.e2e("write_p50_us", w.write_p50_us, "us",
             count_note(w.writes) + " writes");
  report.e2e("read_p50_us", w.read_p50_us, "us",
             count_note(w.reads) + " reads");

  // Zero-copy invariant: no payload of any set-up, warm-up or measured
  // op ever fell back to the heap.
  const double heap_allocs = registry_total("fwd.client.payload_allocs");
  if (heap_allocs != 0.0) {
    report.fail("fwd.client.payload_allocs reached " +
                std::to_string(heap_allocs) + " (slab pool ran dry)");
  }

  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!args.trace) return report;

  // --- per-layer numbers (traced run) --------------------------------------
  // Registry ratios take every op of the measured region as their base.
  double ops = 0.0;
  double write_ops = 0.0;
  for (const auto& s : all) {
    ops += 1.0;
    if (s.write) write_ops += 1.0;
  }
  const std::vector<double> dispatch_us = span_durations_us("dispatch");
  const std::vector<double> flush_us = span_durations_us("flush");

  tracer.set_enabled(true);
  LadderSamples lad = run_ladder(*bed, args.seed, args.seconds * 0.3, report);
  double frames_per_batch = 0.0;
  const bool framed = shape.transport != rpc::TransportKind::kInProc;
  const auto codec = framed ? time_codec(shape, args.seed, frames_per_batch, report)
                            : std::pair<double, double>{0.0, 0.0};
  const double slab_ns = time_slab(bed->service(), shape, args.seed);
  tracer.set_enabled(false);

  const Quantiles lc(lad.client), lp(lad.port), ld(lad.daemon), lf(lad.pfs);
  const std::string ladder_n = count_note(lc.count()) + " ladder ops";

  const double forwarded = delta.counter("fwd.client.forwarded_ops");
  report.layer("fwd.client.self_p50_us", lc.at(0.5) - lp.at(0.5), "us",
               "Client p50 " + std::to_string(lc.at(0.5)) + " - port p50, " +
                   ladder_n);
  report.layer("fwd.client.subrequests_per_op", ratio(forwarded, ops), "ratio",
               base(forwarded, ops));
  report.layer("fwd.client.retries", delta.counter("fwd.retries"), "count");
  report.layer("fwd.client.payload_heap_allocs", heap_allocs, "count");

  const double frames = delta.counter("rpc.frames_sent");
  const double rpc_retries = delta.counter("rpc.retries");
  report.layer("rpc.port_rtt_p50_us", lp.at(0.5), "us", ladder_n);
  report.layer("rpc.port_rtt_p99_us", lp.at(0.99), "us", ladder_n);
  report.layer("rpc.self_p50_us", lp.at(0.5) - ld.at(0.5), "us",
               "port p50 - daemon p50, " + ladder_n);
  report.layer("rpc.frames_per_op", ratio(frames, ops), "ratio",
               base(frames, ops));
  report.layer("rpc.retries_per_op", ratio(rpc_retries, ops), "ratio",
               base(rpc_retries, ops));
  report.layer("rpc.dedup_hits", delta.counter("rpc.dedup_hits"), "count");
  report.layer("rpc.encode_ns", codec.first, "ns",
               framed ? "per frame, " + std::to_string(frames_per_batch) +
                            " frames/batch"
                      : "codec not on the in-proc path");
  report.layer("rpc.decode_ns", codec.second, "ns",
               framed ? "per frame" : "codec not on the in-proc path");

  const double reads_local = delta.counter("fwd.ion.reads_local");
  const double reads_pfs = delta.counter("fwd.ion.reads_pfs");
  const double coalesced = delta.counter("fwd.ion.flush_coalesced_extents");
  const double pfs_writes = delta.counter("fwd.pfs.write_ops");
  const auto wait = delta.histogram("fwd.ion.queue_wait_us");
  report.layer("fwd.ion.submit_rtt_p50_us", ld.at(0.5), "us", ladder_n);
  report.layer("fwd.ion.submit_rtt_p99_us", ld.at(0.99), "us", ladder_n);
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
  report.layer("fwd.ion.dispatch_span_us", median_of(dispatch_us), "us",
               count_note(dispatch_us.size()) + " spans");
  report.layer("fwd.ion.flush_span_us", median_of(flush_us), "us",
               count_note(flush_us.size()) + " spans");

  const double agios_req = delta.counter("agios.requests");
  const double merged = delta.counter("agios.merged_requests");
  const double agios_disp = delta.counter("agios.dispatches");
  report.layer("agios.merge_ratio", ratio(merged, agios_req), "ratio",
               base(merged, agios_req));
  report.layer("agios.dispatches_per_request", ratio(agios_disp, agios_req),
               "ratio", base(agios_disp, agios_req));

  report.layer("fwd.pfs.write_p50_us", Quantiles(lad.pfs_write).at(0.5), "us",
               count_note(lad.pfs_write.size()) + " ladder writes");
  report.layer("fwd.pfs.read_p50_us", Quantiles(lad.pfs_read).at(0.5), "us",
               count_note(lad.pfs_read.size()) + " ladder reads");
  report.layer("fwd.pfs.write_ops_per_op", ratio(pfs_writes, write_ops),
               "ratio", base(pfs_writes, write_ops) + " client writes");

  report.layer("common.slab.acquire_release_ns", slab_ns, "ns",
               "per pair, median of batches");
  report.layer("common.slab.exhausted",
               delta.counter("fwd.ion.slab.exhausted"), "count");

  const double traced_ops_per_s = summarise(all, traced).ops_per_s;
  report.layer("telemetry.trace_overhead_frac",
               1.0 - ratio(traced_ops_per_s, w.ops_per_s), "ratio",
               "1 - " + base(traced_ops_per_s, w.ops_per_s) + " ops/s");
  return report;
}

}  // namespace

Report run_fwd_inproc_rw(const Args& args) {
  static const FwdShape shape{"fwd_inproc_rw", 2, 2, rpc::TransportKind::kInProc,
                              64 * KiB, 32, 16, 8, 0.6};
  return run_fwd(shape, args);
}

Report run_fwd_inproc_small(const Args& args) {
  static const FwdShape shape{"fwd_inproc_small", 1, 1,
                              rpc::TransportKind::kInProc, 4 * KiB, 64, 0, 1,
                              0.6};
  return run_fwd(shape, args);
}

Report run_fwd_tcp_read(const Args& args) {
  static const FwdShape shape{"fwd_tcp_read", 1, 2, rpc::TransportKind::kTcp,
                              4 * KiB, 64, 0, 1, 0.1};
  return run_fwd(shape, args);
}

Report run_fwd_tcp_small(const Args& args) {
  static const FwdShape shape{"fwd_tcp_small", 1, 2, rpc::TransportKind::kTcp,
                              4 * KiB, 64, 0, 1, 0.6};
  return run_fwd(shape, args);
}

}  // namespace perfbench
