#include "obs/metrics.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace hpccsim::obs {

namespace {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Host clock at static initialization: wall_time_s covers the whole
// process, however late a bench constructs its BenchMetrics.
const std::uint64_t g_process_start_ns = monotonic_ns();

void emit_pairs(std::ostringstream& os,
                const std::vector<std::pair<std::string, std::string>>& kv) {
  bool first = true;
  for (const auto& [k, v] : kv) {
    if (!first) os << ',';
    first = false;
    os << '"' << detail::json_escape(k) << "\":" << v;
  }
}

}  // namespace

WallTimer::WallTimer() : start_ns_(monotonic_ns()) {}

void WallTimer::restart() { start_ns_ = monotonic_ns(); }

double WallTimer::elapsed_s() const {
  return static_cast<double>(monotonic_ns() - start_ns_) / 1e9;
}

BenchMetrics::BenchMetrics(std::string bench) : bench_(std::move(bench)) {}

void BenchMetrics::config(std::string_view key, std::string_view value) {
  config_.emplace_back(std::string(key),
                       '"' + detail::json_escape(value) + '"');
}

void BenchMetrics::config(std::string_view key, std::int64_t value) {
  config_.emplace_back(std::string(key), std::to_string(value));
}

void BenchMetrics::config(std::string_view key, double value) {
  config_.emplace_back(std::string(key), detail::json_double(value));
}

void BenchMetrics::metric(std::string_view key, std::int64_t value) {
  metrics_.emplace_back(std::string(key), std::to_string(value));
}

void BenchMetrics::metric(std::string_view key, double value) {
  metrics_.emplace_back(std::string(key), detail::json_double(value));
}

void BenchMetrics::attach_counters(const Registry& registry) {
  counters_json_ = registry.json();
}

std::string BenchMetrics::json() const {
  const double wall_s =
      static_cast<double>(monotonic_ns() - g_process_start_ns) / 1e9;
  std::ostringstream os;
  os << "{\"schema_version\":2,\"bench\":\"" << detail::json_escape(bench_)
     << "\",\"config\":{";
  emit_pairs(os, config_);
  os << "},\"metrics\":{";
  emit_pairs(os, metrics_);
  os << "}";
  if (threads_ > 0) os << ",\"threads\":" << threads_;
  os << ",\"sim_time_s\":" << detail::json_double(sim_time_s_)
     << ",\"wall_time_s\":" << detail::json_double(wall_s);
  if (!counters_json_.empty()) os << ",\"counters\":" << counters_json_;
  os << "}\n";
  return os.str();
}

bool BenchMetrics::write_file(const std::string& path) const {
  if (path.empty()) return true;
  std::ofstream os(path);
  if (os) os << json();
  if (!os) {
    std::fprintf(stderr, "warning: could not write metrics to %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace hpccsim::obs
