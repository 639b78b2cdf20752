// Tests for the space-sharing scheduler: the rectangle allocator's
// invariants, fragmentation accounting, and the batch simulator's
// policies (FCFS head-of-line blocking vs EASY backfill).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sched/batch.hpp"
#include "sched/partition.hpp"
#include "util/parallel.hpp"

namespace hpccsim::sched {
namespace {

using mesh::Mesh2D;
using sim::Time;

// ---------------------------------------------------------- allocator --

TEST(Partition, AllocatesAndReleases) {
  PartitionAllocator a(Mesh2D(8, 8));
  const auto p = a.allocate(4, 4);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.rect_of(*p).nodes(), 16);
  EXPECT_EQ(a.nodes_busy(), 16);
  EXPECT_DOUBLE_EQ(a.utilization(), 0.25);
  a.release(*p);
  EXPECT_EQ(a.nodes_busy(), 0);
  EXPECT_EQ(a.active_partitions(), 0u);
}

TEST(Partition, AllocationsNeverOverlap) {
  PartitionAllocator a(Mesh2D(8, 8));
  Rng rng(3);
  std::vector<PartitionId> live;
  std::set<std::pair<int, int>> cells;
  auto cover = [&](const Rect& r, bool add) {
    for (int y = r.y; y < r.y + r.h; ++y)
      for (int x = r.x; x < r.x + r.w; ++x) {
        if (add) {
          EXPECT_TRUE(cells.insert({x, y}).second) << "overlap!";
        } else {
          cells.erase({x, y});
        }
      }
  };
  for (int step = 0; step < 300; ++step) {
    if (!live.empty() && rng.uniform() < 0.4) {
      const std::size_t i = rng.below(live.size());
      cover(a.rect_of(live[i]), false);
      a.release(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const auto w = static_cast<std::int32_t>(rng.range(1, 4));
      const auto h = static_cast<std::int32_t>(rng.range(1, 4));
      if (auto p = a.allocate(w, h)) {
        cover(a.rect_of(*p), true);
        live.push_back(*p);
      }
    }
    EXPECT_EQ(a.nodes_busy(), static_cast<std::int32_t>(cells.size()));
  }
}

TEST(Partition, FullMachineThenNothingFits) {
  PartitionAllocator a(Mesh2D(4, 4));
  ASSERT_TRUE(a.allocate(4, 4).has_value());
  EXPECT_FALSE(a.allocate(1, 1).has_value());
  EXPECT_DOUBLE_EQ(a.utilization(), 1.0);
}

TEST(Partition, TriesBothOrientations) {
  PartitionAllocator a(Mesh2D(8, 2));
  // 2x6 does not fit upright in a 8x2 mesh, but 6x2 does.
  const auto p = a.allocate(2, 6);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.rect_of(*p).nodes(), 12);
}

TEST(Partition, AllocateNodesRelaxesShape) {
  PartitionAllocator a(Mesh2D(8, 4));
  // Occupy the top 3 rows; only a 8x1 strip remains.
  ASSERT_TRUE(a.allocate(8, 3).has_value());
  const auto p = a.allocate_nodes(8);  // near-square 4x2 won't fit; 8x1 will
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.rect_of(*p).h, 1);
}

TEST(Partition, CandidateShapesAreExactFactorizations) {
  for (const std::int32_t n : {1, 12, 16, 17, 528}) {
    for (const auto& [w, h] : candidate_shapes(n)) {
      EXPECT_EQ(w * h, n);
      EXPECT_GE(w, h);  // widest-first ordering yields w >= h
    }
  }
  EXPECT_EQ(candidate_shapes(17).size(), 1u);  // prime: only 17x1
}

TEST(Partition, LargestFreeRectangleTracksHoles) {
  PartitionAllocator a(Mesh2D(4, 4));
  EXPECT_EQ(a.largest_free_rectangle(), 16);
  const auto p = a.allocate(2, 2);  // placed at origin
  ASSERT_TRUE(p.has_value());
  // Free space is an L: largest rectangle is 4x2 (bottom) = 8.
  EXPECT_EQ(a.largest_free_rectangle(), 8);
  a.release(*p);
  EXPECT_EQ(a.largest_free_rectangle(), 16);
}

TEST(Partition, FragmentationMetric) {
  PartitionAllocator a(Mesh2D(4, 4));
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);
  // A checkerboard-ish pattern: occupy middle columns to split free
  // space into two 1-wide strips.
  ASSERT_TRUE(a.allocate(2, 4).has_value());  // cols 0-1
  // Free: cols 2,3 as one 2x4 rect -> unfragmented.
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);
}

TEST(Partition, DeltaSizedMachine) {
  PartitionAllocator a(Mesh2D(33, 16));
  std::vector<PartitionId> ps;
  // Fill with 8x8 partitions: floor(33/8)=4 across, 2 down = 8 blocks.
  for (int i = 0; i < 8; ++i) {
    const auto p = a.allocate(8, 8);
    ASSERT_TRUE(p.has_value()) << i;
    ps.push_back(*p);
  }
  EXPECT_EQ(a.nodes_busy(), 512);
  EXPECT_FALSE(a.allocate(8, 8).has_value());  // only a 1-wide strip left
  for (const auto p : ps) a.release(p);
  EXPECT_EQ(a.nodes_busy(), 0);
}

TEST(Partition, RequestsLargerThanMeshAreRejected) {
  PartitionAllocator a(Mesh2D(8, 4));
  // 1x6 only fits rotated (6x1); 9x1 fits neither way on an 8x4.
  const auto rotated = a.allocate(1, 6);
  ASSERT_TRUE(rotated.has_value());
  a.release(*rotated);
  EXPECT_FALSE(a.allocate(9, 1).has_value());
  EXPECT_FALSE(a.allocate(9, 5).has_value());
  EXPECT_FALSE(a.allocate(5, 5).has_value());
  EXPECT_FALSE(a.allocate_nodes(33).has_value());  // 33 is prime: 1x33 only
  EXPECT_FALSE(a.allocate_nodes(64).has_value());  // more than the machine
}

TEST(Partition, ExactFitLeavesNothingAndComesBack) {
  PartitionAllocator a(Mesh2D(6, 5));
  const auto whole = a.allocate(6, 5);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(a.nodes_busy(), 30);
  EXPECT_EQ(a.largest_free_rectangle(), 0);
  EXPECT_FALSE(a.allocate(1, 1).has_value());
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);  // no free nodes at all
  a.release(*whole);
  EXPECT_EQ(a.largest_free_rectangle(), 30);
  EXPECT_TRUE(a.allocate(6, 5).has_value());
}

TEST(Partition, FragmentationThenCoalescing) {
  PartitionAllocator a(Mesh2D(8, 1));
  // Four 2-wide strips fill the row; releasing strips 0 and 2 leaves
  // four free nodes that only form 2-wide holes.
  std::vector<PartitionId> ps;
  for (int i = 0; i < 4; ++i) {
    const auto p = a.allocate(2, 1);
    ASSERT_TRUE(p.has_value());
    ps.push_back(*p);
  }
  a.release(ps[0]);
  a.release(ps[2]);
  EXPECT_EQ(a.largest_free_rectangle(), 2);
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.5);  // 2 of 4 free nodes stranded
  EXPECT_FALSE(a.allocate(4, 1).has_value());
  // Releasing the separator coalesces holes 0-1 and 2-5 into 0-5.
  a.release(ps[1]);
  EXPECT_EQ(a.largest_free_rectangle(), 6);
  EXPECT_DOUBLE_EQ(a.fragmentation(), 0.0);
  EXPECT_TRUE(a.allocate(6, 1).has_value());
}

TEST(Partition, AllocationOrderIsDeterministicAcrossJobs) {
  // The same allocate/release script replayed on independent
  // allocators under parallel_for must place every partition at the
  // same coordinates whatever the worker count (the product's
  // byte-identical-at-any---jobs contract, at the allocator layer).
  auto script = [] {
    PartitionAllocator a(Mesh2D(33, 16));
    std::vector<Rect> placed;
    std::vector<PartitionId> live;
    Rng rng(7);
    for (int step = 0; step < 200; ++step) {
      if (!live.empty() && rng.uniform() < 0.35) {
        const std::size_t i = rng.below(live.size());
        a.release(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        const auto w = static_cast<std::int32_t>(rng.range(1, 12));
        const auto h = static_cast<std::int32_t>(rng.range(1, 8));
        if (const auto p = a.allocate(w, h)) {
          placed.push_back(a.rect_of(*p));
          live.push_back(*p);
        }
      }
    }
    return placed;
  };
  const std::vector<Rect> reference = script();
  EXPECT_FALSE(reference.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::vector<Rect>> replica(4);
    parallel_for(replica.size(), static_cast<int>(workers),
                 [&](std::size_t i) { replica[i] = script(); });
    for (const auto& r : replica) EXPECT_EQ(r, reference);
  }
}

// -------------------------------------------------------------- batch --

Job mk_job(const char* name, std::int32_t nodes, double runtime_min,
           double submit_min, double estimate_min = 0) {
  Job j;
  j.name = name;
  j.nodes = nodes;
  j.runtime = Time::sec(runtime_min * 60);
  j.estimate = Time::sec((estimate_min > 0 ? estimate_min : runtime_min) * 60);
  j.submit = Time::sec(submit_min * 60);
  return j;
}

TEST(Batch, SingleJobRunsImmediately) {
  BatchSimulator sim(Mesh2D(8, 8), SchedulePolicy::FCFS);
  sim.submit(mk_job("a", 16, 30, 0));
  const BatchResult r = sim.run();
  EXPECT_EQ(r.makespan, Time::sec(30 * 60));
  EXPECT_EQ(r.wait_minutes.max(), 0.0);
  EXPECT_NEAR(r.utilization, 16.0 / 64.0, 1e-12);
}

TEST(Batch, FcfsQueuesWhenFull) {
  BatchSimulator sim(Mesh2D(4, 4), SchedulePolicy::FCFS);
  sim.submit(mk_job("big1", 16, 60, 0));
  sim.submit(mk_job("big2", 16, 60, 1));
  const BatchResult r = sim.run();
  const auto& jobs = sim.jobs();
  EXPECT_EQ(jobs[1].start, jobs[0].finish);
  EXPECT_EQ(r.makespan, Time::sec(120 * 60));
}

TEST(Batch, FcfsHeadOfLineBlocksSmallJobs) {
  // big1 fills the machine; big2 waits; tiny submitted after big2 must
  // ALSO wait under FCFS even though space exists for it after big1.
  BatchSimulator sim(Mesh2D(4, 4), SchedulePolicy::FCFS);
  sim.submit(mk_job("big1", 12, 60, 0));
  sim.submit(mk_job("big2", 16, 60, 1));
  sim.submit(mk_job("tiny", 1, 5, 2));
  sim.run();
  const auto& jobs = sim.jobs();
  // tiny starts only after big2 started (FCFS order).
  EXPECT_GE(jobs[2].start, jobs[1].start);
}

TEST(Batch, EasyBackfillLetsTinyJobsThrough) {
  BatchSimulator sim(Mesh2D(4, 4), SchedulePolicy::EasyBackfill);
  sim.submit(mk_job("big1", 12, 60, 0));
  sim.submit(mk_job("big2", 16, 60, 1));
  sim.submit(mk_job("tiny", 1, 5, 2));  // fits beside big1, ends well
                                        // before big1 frees the machine
  const BatchResult r = sim.run();
  const auto& jobs = sim.jobs();
  EXPECT_LT(jobs[2].start, jobs[1].start);  // jumped the queue
  EXPECT_EQ(r.backfilled, 1);
}

TEST(Batch, BackfillNeverDelaysReservedHead) {
  // tiny's estimate exceeds the head's reserved start; it must NOT
  // backfill.
  BatchSimulator sim(Mesh2D(4, 4), SchedulePolicy::EasyBackfill);
  sim.submit(mk_job("big1", 16, 60, 0));
  sim.submit(mk_job("big2", 16, 60, 1));
  sim.submit(mk_job("long-tiny", 1, 30, 2, /*estimate=*/120));
  const BatchResult r = sim.run();
  const auto& jobs = sim.jobs();
  EXPECT_GE(jobs[2].start, jobs[1].start);
  EXPECT_EQ(r.backfilled, 0);
}

TEST(Batch, AllJobsCompleteUnderBothPolicies) {
  for (const auto policy :
       {SchedulePolicy::FCFS, SchedulePolicy::EasyBackfill}) {
    BatchSimulator sim(Mesh2D(33, 16), policy);
    for (Job& j : consortium_workload(80, 528, 7)) sim.submit(std::move(j));
    const BatchResult r = sim.run();
    for (const Job& j : sim.jobs()) {
      EXPECT_TRUE(j.done);
      EXPECT_GE(j.start, j.submit);
      EXPECT_EQ(j.finish, j.start + j.runtime);
    }
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
  }
}

TEST(Batch, BackfillImprovesWaitAndUtilization) {
  auto run_policy = [](SchedulePolicy p) {
    BatchSimulator sim(Mesh2D(33, 16), p);
    for (Job& j : consortium_workload(120, 528, 11)) sim.submit(std::move(j));
    return sim.run();
  };
  const BatchResult fcfs = run_policy(SchedulePolicy::FCFS);
  const BatchResult easy = run_policy(SchedulePolicy::EasyBackfill);
  EXPECT_GT(easy.backfilled, 0);
  // The classic result: backfill cuts mean wait substantially.
  EXPECT_LT(easy.wait_minutes.mean(), fcfs.wait_minutes.mean());
  EXPECT_GE(easy.utilization, fcfs.utilization * 0.99);
}

// The testbed_ops exhibit's seeds at 80 jobs, pinned exactly: a change
// to WaitQueue::schedule_pass (shared with the platform simulator) that
// moves any job start shows up here.
TEST(Batch, ConsortiumDayGoldens) {
  struct Point {
    SchedulePolicy policy;
    std::uint64_t seed;
    std::uint64_t makespan_ps;
    std::int64_t backfilled;
    double mean_wait_min;
  };
  const Point golden[] = {
      {SchedulePolicy::FCFS, 3, 121366335243353107u, 0, 793.07595075293034},
      {SchedulePolicy::FCFS, 17, 86408889837815459u, 0, 326.00662860976212},
      {SchedulePolicy::FCFS, 29, 92281274090526058u, 0, 442.55353676250525},
      {SchedulePolicy::EasyBackfill, 3, 108075360678291770u, 57,
       189.24351223020415},
      {SchedulePolicy::EasyBackfill, 17, 79566068036305568u, 48,
       114.55382158881775},
      {SchedulePolicy::EasyBackfill, 29, 86692398194482637u, 55,
       174.0007859616716},
  };
  for (const Point& p : golden) {
    BatchSimulator sim(Mesh2D(33, 16), p.policy);
    for (Job& j : consortium_workload(80, 528, p.seed))
      sim.submit(std::move(j));
    const BatchResult r = sim.run();
    EXPECT_EQ(r.makespan.picoseconds(), p.makespan_ps)
        << policy_name(p.policy) << " seed " << p.seed;
    EXPECT_EQ(r.backfilled, p.backfilled)
        << policy_name(p.policy) << " seed " << p.seed;
    EXPECT_EQ(r.requeued, 0) << policy_name(p.policy) << " seed " << p.seed;
    EXPECT_EQ(r.wait_minutes.mean(), p.mean_wait_min)
        << policy_name(p.policy) << " seed " << p.seed;
  }
}

TEST(Batch, WorkloadGeneratorIsDeterministicAndBounded) {
  const auto a = consortium_workload(50, 528, 9);
  const auto b = consortium_workload(50, 528, 9);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].runtime, b[i].runtime);
    EXPECT_GE(a[i].nodes, 1);
    EXPECT_LE(a[i].nodes, 528);
    EXPECT_GE(a[i].estimate, a[i].runtime);
  }
}

TEST(Batch, NodeFailureRequeuesVictimJob) {
  BatchSimulator sim(Mesh2D(8, 8), SchedulePolicy::FCFS);
  sim.submit(mk_job("victim", 64, 30, 0));  // fills the whole mesh
  // Node 0 dies 10 minutes in: the job loses its progress and reruns.
  sim.inject_failures({{Time::sec(10 * 60), 0}});
  const BatchResult r = sim.run();
  EXPECT_EQ(r.requeued, 1);
  EXPECT_NEAR(r.lost_node_seconds, 64.0 * 600.0, 1e-6);
  // Restarted immediately at t=10 min, full 30-minute rerun.
  EXPECT_EQ(r.makespan, Time::sec(40 * 60));
}

TEST(Batch, FailureOnIdleNodeIsHarmless) {
  BatchSimulator sim(Mesh2D(8, 8), SchedulePolicy::FCFS);
  sim.submit(mk_job("a", 4, 30, 0));  // leaves most of the mesh idle
  sim.inject_failures({{Time::sec(10 * 60), 63}});  // far corner
  const BatchResult r = sim.run();
  EXPECT_EQ(r.requeued, 0);
  EXPECT_EQ(r.lost_node_seconds, 0.0);
  EXPECT_EQ(r.makespan, Time::sec(30 * 60));
}

TEST(Batch, RejectsOversizedJob) {
  BatchSimulator sim(Mesh2D(4, 4), SchedulePolicy::FCFS);
  EXPECT_THROW(sim.submit(mk_job("too-big", 17, 10, 0)), ContractError);
}

}  // namespace
}  // namespace hpccsim::sched
