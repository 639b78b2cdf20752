// Batch scheduling of the space-shared testbed.
//
// The paper's "APPROACH" slide: "ESTABLISH HIGH PERFORMANCE COMPUTING
// TESTBEDS" used by "APPLICATION SOFTWARE TEAMS". Operationally that
// meant a batch queue in front of the partition allocator. This module
// simulates it: jobs arrive over time, are placed FCFS or with EASY
// backfill, run for their duration, and free their partitions.
//
// The simulation runs on the discrete-event engine with plain callbacks
// (no coroutines needed — there is no intra-job behaviour here). The
// FCFS/EASY pass itself, WaitQueue::schedule_pass, is shared with the
// shared-platform simulator (sched/platform.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "obs/counters.hpp"
#include "sched/partition.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hpccsim::sched {

struct Job {
  std::string name;
  std::int32_t nodes = 1;
  sim::Time runtime;        ///< actual runtime
  sim::Time estimate;       ///< user estimate (backfill uses this)
  sim::Time submit;

  // Filled by the scheduler.
  sim::Time start;
  sim::Time finish;
  bool started = false;
  bool done = false;

  // Fault bookkeeping (scheduler-internal). `incarnation` invalidates
  // the pending finish event when a node failure kills the job.
  std::int32_t incarnation = 0;
  PartitionId pid = -1;
};

/// A node failure to inject into a batch run: at `when`, `node` dies,
/// killing whatever job occupies it (the job loses all progress and is
/// re-queued at the head). The node itself returns to service
/// immediately — operators swapped boards within minutes, and the
/// scheduler-level question is the lost work, not the hole.
struct NodeFailure {
  sim::Time when;
  std::int32_t node = 0;
};

enum class SchedulePolicy {
  FCFS,          ///< strict queue order; head-of-line blocking
  EasyBackfill,  ///< later jobs may jump ahead if they cannot delay the
                 ///< reserved start of the queue head
};

const char* policy_name(SchedulePolicy p);

/// A job as the scheduling pass sees it.
struct PassJob {
  bool running = false;  ///< holds a partition right now
  sim::Time start;       ///< dispatch time (running jobs)
  sim::Time estimate;    ///< user runtime estimate
  std::int32_t nodes = 0;
};

/// The wait queue of a space-shared machine, with the one FCFS/EASY
/// scheduling pass that both BatchSimulator and PlatformSimulator run.
struct WaitQueue {
  std::deque<std::size_t> jobs;  ///< indices of waiting jobs, FCFS order
  std::int64_t backfilled = 0;   ///< jobs started out of queue order
  RunningStat frag;              ///< fragmentation after each pass

  /// Start queue-head jobs while `try_start(i)` succeeds (it allocates
  /// job i a partition and returns false if none fits). Under EASY
  /// backfill, then give the blocked head a reservation and let later
  /// jobs jump ahead only if they finish, by their own estimate, before
  /// the head's reserved start. The reservation is computed on node
  /// counts; the actual start still requires a free rectangle (a
  /// documented approximation for a mesh-partitioned machine).
  /// `view(i)` describes job i for i < job_count.
  template <class View, class TryStart>
  void schedule_pass(SchedulePolicy policy, sim::Time now,
                     const PartitionAllocator& alloc, std::size_t job_count,
                     View view, TryStart try_start) {
    while (!jobs.empty() && try_start(jobs.front())) jobs.pop_front();

    if (!jobs.empty() && policy == SchedulePolicy::EasyBackfill) {
      const std::int32_t head_nodes = view(jobs.front()).nodes;
      std::vector<std::pair<sim::Time, std::int32_t>> running;  // finish,nodes
      for (std::size_t i = 0; i < job_count; ++i) {
        const PassJob j = view(i);
        if (j.running) running.emplace_back(j.start + j.estimate, j.nodes);
      }
      std::sort(running.begin(), running.end());
      std::int32_t free_nodes = alloc.nodes_total() - alloc.nodes_busy();
      sim::Time shadow = now;
      for (const auto& [finish, nodes] : running) {
        if (free_nodes >= head_nodes) break;
        free_nodes += nodes;
        // Platform estimates exclude checkpoint overhead, so a job can
        // run past its estimated finish: an overdue reservation
        // collapses to "could free any moment now". For batch jobs the
        // max is a no-op: a running job ends at start + runtime <=
        // start + estimate and has not ended yet, so finish >= now.
        shadow = std::max(shadow, finish);
      }
      // Scan the rest of the queue in order for backfill candidates.
      for (auto it = std::next(jobs.begin()); it != jobs.end();) {
        if (now + view(*it).estimate <= shadow && try_start(*it)) {
          ++backfilled;
          it = jobs.erase(it);
        } else {
          ++it;
        }
      }
    }
    frag.add(alloc.fragmentation());
  }
};

struct BatchResult {
  sim::Time makespan;
  double utilization = 0.0;      ///< busy node-seconds / (nodes * makespan)
  RunningStat wait_minutes;      ///< queue wait per job
  RunningStat frag_samples;      ///< fragmentation at each schedule pass
  std::int64_t backfilled = 0;   ///< jobs started out of queue order
  std::int64_t requeued = 0;     ///< job restarts forced by node failures
  double lost_node_seconds = 0.0;  ///< node-seconds of discarded progress
};

class BatchSimulator {
 public:
  BatchSimulator(mesh::Mesh2D mesh, SchedulePolicy policy);

  /// Submit a job (before run()); jobs may be submitted in any order.
  void submit(Job job);

  /// Register node failures to fire during run() (call before run()).
  void inject_failures(std::vector<NodeFailure> failures);

  /// Run to completion of all jobs; returns the metrics.
  BatchResult run();

  const std::vector<Job>& jobs() const { return jobs_; }

 private:
  void schedule_pass(sim::Engine& engine);
  bool try_start(sim::Engine& engine, std::size_t job_index);
  void on_failure(sim::Engine& engine, std::int32_t node);

  mesh::Mesh2D mesh_;
  SchedulePolicy policy_;
  PartitionAllocator alloc_;
  std::vector<Job> jobs_;
  WaitQueue queue_;
  std::vector<NodeFailure> failures_;
  double busy_node_seconds_ = 0.0;
  double lost_node_seconds_ = 0.0;
  std::int64_t requeued_ = 0;
};

/// Set the "sched.*" counters (jobs backfilled/requeued, utilization,
/// makespan, lost node-seconds) in `registry` from a finished run.
void export_counters(const BatchResult& result, obs::Registry& registry);

/// A representative consortium day: a mix of full-machine hero runs,
/// mid-size production sweeps, and small debug jobs.
std::vector<Job> consortium_workload(std::int32_t total_jobs,
                                     std::int32_t machine_nodes,
                                     std::uint64_t seed);

}  // namespace hpccsim::sched
