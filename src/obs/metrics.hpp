// Machine-readable bench metrics: the shared --json schema.
//
// Every bench/exhibit binary builds one BenchMetrics, records its
// configuration and headline numbers, and writes it when the user
// passed --json <path>. The schema is stable (CI diffs it against
// bench/baselines.json — see tools/check_metrics.py):
//
//   {
//     "schema_version": 2,
//     "bench": "fig1_linpack",
//     "config":  {"machine": "delta", "n": "1000,...", "jobs": 1},
//     "metrics": {"gflops_max": 12.9, "messages": 3400000},
//     "threads": 4,               // v2, optional: simulator worker threads
//     "sim_time_s": 813.2,        // deterministic: gated hard by CI
//     "wall_time_s": 1.84,        // host-dependent: CI only warns
//     "counters": {...}           // optional Registry dump
//   }
//
// Schema history: v2 added the optional top-level "threads" field
// (docs/METRICS.md); tools/check_metrics.py accepts v1 and v2.
//
// Keys inside config/metrics appear in insertion order; sim_time_s is
// the sum of simulated seconds across the bench's sweep points, the
// one number every bench must provide. wall_time_s is measured from
// process start (static initialization) to write.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/time.hpp"
#include "obs/counters.hpp"

namespace hpccsim::obs {

/// Host wall-clock stopwatch (monotonic) for timing bench sections.
/// Wall numbers are host-dependent: report them, never gate on them
/// (tools/check_metrics.py treats wall time as warn-only).
class WallTimer {
 public:
  WallTimer();
  void restart();
  double elapsed_s() const;

 private:
  std::uint64_t start_ns_;
};

class BenchMetrics {
 public:
  explicit BenchMetrics(std::string bench);

  void config(std::string_view key, std::string_view value);
  void config(std::string_view key, std::int64_t value);
  void config(std::string_view key, double value);

  void metric(std::string_view key, std::int64_t value);
  void metric(std::string_view key, double value);

  /// Accumulates into sim_time_s (benches add each sweep point's
  /// elapsed simulated time).
  void add_sim_time(sim::Time t) { sim_time_s_ += t.as_sec(); }
  double sim_time_s() const { return sim_time_s_; }

  /// Record the simulator worker-thread count (top-level "threads",
  /// schema v2). Unset (0) omits the field, matching v1 output shape.
  void set_threads(int threads) { threads_ = threads; }

  /// Attach a full counter dump under "counters".
  void attach_counters(const Registry& registry);

  std::string json() const;

  /// No-op when `path` is empty (the --json default); returns false on
  /// I/O failure after printing a warning to stderr.
  bool write_file(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;   // pre-encoded
  std::vector<std::pair<std::string, std::string>> metrics_;  // pre-encoded
  std::string counters_json_;
  int threads_ = 0;
  double sim_time_s_ = 0.0;
};

}  // namespace hpccsim::obs
