#include "common.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/clock.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

void Report::e2e(std::string name, double value, std::string unit,
                 std::string note) {
  end_to_end.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void Report::layer(std::string name, double value, std::string unit,
                   std::string note) {
  per_layer.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void Report::info(std::string name, double value, std::string unit,
                  std::string note) {
  reported.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void Report::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

Quantiles::Quantiles(std::vector<double> sample) : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Quantiles::at(double q) const {
  if (sorted_.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double median_of(std::vector<double> sample) {
  return Quantiles(std::move(sample)).at(0.5);
}

OpSummary summarise(const std::vector<OpSample>& samples,
                    const std::vector<std::pair<double, double>>& intervals) {
  double wall = 0.0;
  for (const auto& [from, to] : intervals) wall += to - from;
  std::vector<double> lat, wlat, rlat;
  for (const auto& s : samples) {
    const bool inside = std::any_of(
        intervals.begin(), intervals.end(),
        [&](const auto& iv) { return s.t_end >= iv.first && s.t_end < iv.second; });
    if (!inside) continue;
    lat.push_back(s.lat_us);
    (s.write ? wlat : rlat).push_back(s.lat_us);
  }
  OpSummary out;
  out.samples = lat.size();
  out.writes = wlat.size();
  out.reads = rlat.size();
  out.ops_per_s = ratio(static_cast<double>(lat.size()), wall);
  const Quantiles q(std::move(lat));
  out.p50_us = q.at(0.50);
  out.p99_us = q.at(0.99);
  out.write_p50_us = median_of(std::move(wlat));
  out.read_p50_us = median_of(std::move(rlat));
  return out;
}

double now_s() { return iofa::monotonic_seconds(); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // launching process across exec, so it would measure the launcher.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0.0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void RegistryDelta::begin() {
  before_ = iofa::telemetry::Registry::global().snapshot();
}

void RegistryDelta::end() {
  after_ = iofa::telemetry::Registry::global().snapshot();
}

namespace {

double counter_sum(const iofa::telemetry::Snapshot& snap,
                   const std::string& name) {
  double total = 0.0;
  for (const auto& s : snap.samples) {
    if (s.name == name && s.kind != iofa::telemetry::MetricKind::Histogram) {
      total += s.value;
    }
  }
  return total;
}

/// Merge every label set of one histogram; `sign` -1 subtracts.
void merge_histogram(const iofa::telemetry::Snapshot& snap,
                     const std::string& name, double sign,
                     iofa::telemetry::HistogramSnapshot& acc) {
  for (const auto& s : snap.samples) {
    if (s.name != name || !s.histogram) continue;
    const auto& h = *s.histogram;
    if (acc.buckets.empty()) {
      acc.spec = h.spec;
      acc.buckets.assign(h.buckets.size(), 0);
    }
    if (h.buckets.size() != acc.buckets.size()) continue;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      acc.buckets[b] = sign > 0 ? acc.buckets[b] + h.buckets[b]
                                : acc.buckets[b] - h.buckets[b];
    }
    acc.count = sign > 0 ? acc.count + h.count : acc.count - h.count;
    acc.sum += sign * h.sum;
  }
}

}  // namespace

double RegistryDelta::counter(const std::string& name) const {
  return counter_sum(after_, name) - counter_sum(before_, name);
}

iofa::telemetry::HistogramSnapshot RegistryDelta::histogram(
    const std::string& name) const {
  iofa::telemetry::HistogramSnapshot acc;
  merge_histogram(after_, name, +1.0, acc);
  merge_histogram(before_, name, -1.0, acc);
  return acc;
}

double registry_total(const std::string& name) {
  return counter_sum(iofa::telemetry::Registry::global().snapshot(), name);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::string base(double num, double den) {
  std::ostringstream os;
  os.precision(12);
  os << num << " / " << den;
  return os.str();
}

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

std::vector<double> span_durations_us(const char* name) {
  std::vector<double> out;
  for (const auto& ev : iofa::telemetry::Tracer::global().events()) {
    if (ev.phase == 'X' && std::strcmp(ev.name, name) == 0) {
      out.push_back(static_cast<double>(ev.dur_us));
    }
  }
  return out;
}

bool write_trace(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  iofa::telemetry::write_chrome_trace(iofa::telemetry::Tracer::global(), os);
  return static_cast<bool>(os);
}

void check_overload_identity(const RegistryDelta& delta, Report& report) {
  const double submitted = delta.counter("fwd.overload.submitted");
  const double accounted = delta.counter("fwd.overload.admitted") +
                           delta.counter("fwd.overload.rejected") +
                           delta.counter("fwd.overload.expired") +
                           delta.counter("fwd.overload.direct_fallback") +
                           delta.counter("fwd.ion.failed_requests");
  if (submitted != accounted) {
    report.fail("overload accounting identity broken: submitted " +
                std::to_string(submitted) + " != accounted " +
                std::to_string(accounted));
  }
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void fill_pattern(std::uint64_t key, std::byte* out, std::size_t bytes) {
  for (std::size_t i = 0; i + 8 <= bytes; i += 8) {
    const std::uint64_t w = key + i * 0x9E3779B97F4A7C15ULL;
    std::memcpy(out + i, &w, 8);
  }
}

bool check_pattern(std::uint64_t key, const std::byte* in, std::size_t bytes) {
  for (std::size_t i = 0; i + 8 <= bytes; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, in + i, 8);
    if (w != key + i * 0x9E3779B97F4A7C15ULL) return false;
  }
  return true;
}

}  // namespace perfbench
