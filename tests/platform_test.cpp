// Tests for the shared-platform production stack: the fluid
// shared-bandwidth CFS model, the synthetic month-of-jobs workload
// generator, and the platform simulator's accounting and strategy
// ordering (docs/MODEL.md §14).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/engine.hpp"
#include "io/bandwidth.hpp"
#include "sched/platform.hpp"
#include "sched/workload.hpp"

namespace hpccsim::sched {
namespace {

using mesh::Mesh2D;
using sim::Time;

// ----------------------------------------------------- SharedBandwidth --

TEST(SharedBandwidth, LoneTransferRunsAtFullRate) {
  sim::Engine engine;
  io::SharedBandwidth bw(engine, BytesPerSecond{1e6});
  Time done = Time::zero();
  bw.start(2'000'000, [&] { done = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done.as_sec(), 2.0);
  EXPECT_EQ(bw.stats().completed, 1u);
  EXPECT_EQ(bw.stats().bytes_completed, 2'000'000u);
  EXPECT_DOUBLE_EQ(bw.stats().busy.as_sec(), 2.0);
}

TEST(SharedBandwidth, ConcurrentTransfersStretchEachOther) {
  sim::Engine engine;
  io::SharedBandwidth bw(engine, BytesPerSecond{1e6});
  // Two equal 1 MB writes started together: each sees half the rate
  // throughout, so both complete at 2 s (not 1 s).
  Time a = Time::zero(), b = Time::zero();
  bw.start(1'000'000, [&] { a = engine.now(); });
  bw.start(1'000'000, [&] { b = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(a.as_sec(), 2.0);
  EXPECT_DOUBLE_EQ(b.as_sec(), 2.0);
  EXPECT_EQ(bw.stats().peak_active, 2);
  // Busy time is wall time with >= 1 active transfer, not a sum.
  EXPECT_DOUBLE_EQ(bw.stats().busy.as_sec(), 2.0);
}

TEST(SharedBandwidth, LateArrivalSlowsTheFirst) {
  sim::Engine engine;
  io::SharedBandwidth bw(engine, BytesPerSecond{1e6});
  // 2 MB starts alone; 1 s in (1 MB left) a second 1 MB write joins.
  // Both now drain at 0.5 MB/s and finish together at t = 3 s.
  Time a = Time::zero(), b = Time::zero();
  bw.start(2'000'000, [&] { a = engine.now(); });
  engine.schedule_call(Time::sec(1.0), [&] {
    bw.start(1'000'000, [&] { b = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(a.as_sec(), 3.0);
  EXPECT_DOUBLE_EQ(b.as_sec(), 3.0);
}

TEST(SharedBandwidth, CancelReleasesTheShare) {
  sim::Engine engine;
  io::SharedBandwidth bw(engine, BytesPerSecond{1e6});
  Time a = Time::zero();
  bool canceled_fired = false;
  bw.start(2'000'000, [&] { a = engine.now(); });
  const auto victim = bw.start(2'000'000, [&] { canceled_fired = true; });
  // At t = 1 s each has moved 0.5 MB. Canceling the second frees the
  // full rate: the survivor's remaining 1.5 MB takes 1.5 s more.
  engine.schedule_call(Time::sec(1.0), [&] { bw.cancel(victim); });
  engine.run();
  EXPECT_FALSE(canceled_fired);
  EXPECT_DOUBLE_EQ(a.as_sec(), 2.5);
  EXPECT_EQ(bw.stats().canceled, 1u);
  EXPECT_EQ(bw.stats().bytes_abandoned, 1'500'000u);
}

TEST(SharedBandwidth, ReentrantStartFromCompletion) {
  // The cooperative I/O scheduler grants the next checkpoint from the
  // previous one's completion callback: back-to-back transfers must
  // serialize cleanly.
  sim::Engine engine;
  io::SharedBandwidth bw(engine, BytesPerSecond{1e6});
  Time second_done = Time::zero();
  bw.start(1'000'000, [&] {
    bw.start(1'000'000, [&] { second_done = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(second_done.as_sec(), 2.0);
  EXPECT_EQ(bw.stats().completed, 2u);
}

TEST(SharedBandwidth, EffectiveCfsBandwidthMatchesClosedForm) {
  // effective_cfs_bandwidth folds the per-chunk seek into the stream
  // rate exactly as Cfs::estimate_write_time charges it, so a lone
  // fluid transfer of B bytes takes chunks*seek + B/(disks*disk_bw).
  io::CfsConfig cfg;
  const std::int32_t disks = 4;
  const Bytes total = 64 * MiB;
  const double chunks =
      std::ceil(static_cast<double>(total) / disks /
                static_cast<double>(cfg.stripe));
  const double expect_s = chunks * cfg.seek.as_sec() +
                          static_cast<double>(total) / disks /
                              cfg.disk_bw.bytes_per_sec();
  const double fluid_s =
      static_cast<double>(total) /
      io::effective_cfs_bandwidth(cfg, disks).bytes_per_sec();
  EXPECT_NEAR(fluid_s, expect_s, expect_s * 0.01);
}

// ------------------------------------------------------------ workload --

TEST(PlatformWorkload, DeterministicAndExactCount) {
  const Mesh2D mesh(33, 16);
  PlatformWorkloadConfig cfg;
  cfg.jobs = 400;
  cfg.days = 10.0;
  const auto a = platform_workload(cfg, mesh);
  const auto b = platform_workload(cfg, mesh);
  ASSERT_EQ(a.size(), 400u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].submit, b[i].submit);
    EXPECT_EQ(a[i].width, b[i].width);
    EXPECT_EQ(a[i].height, b[i].height);
    EXPECT_EQ(a[i].work, b[i].work);
    EXPECT_EQ(a[i].ckpt_bytes_per_node, b[i].ckpt_bytes_per_node);
  }
}

TEST(PlatformWorkload, JobsFitTheMeshAndAreOrdered) {
  const Mesh2D mesh(33, 16);
  PlatformWorkloadConfig cfg;
  cfg.jobs = 500;
  const auto classes = default_app_classes();
  Time prev = Time::zero();
  for (const PlatformJob& j : platform_workload(cfg, mesh)) {
    EXPECT_GE(j.submit, prev);
    prev = j.submit;
    EXPECT_GE(j.width, 1);
    EXPECT_GE(j.height, 1);
    EXPECT_LE(j.width, mesh.width());
    EXPECT_LE(j.height, mesh.height());
    EXPECT_GT(j.work, Time::zero());
    EXPECT_GE(j.estimate, j.work);
    ASSERT_GE(j.app_class, 0);
    ASSERT_LT(j.app_class, static_cast<std::int32_t>(classes.size()));
    const AppClass& c = classes[static_cast<std::size_t>(j.app_class)];
    EXPECT_GE(j.ckpt_bytes_per_node, c.min_footprint);
    EXPECT_LE(j.ckpt_bytes_per_node, c.max_footprint);
  }
}

TEST(PlatformWorkload, ArrivalSpanTracksConfiguredDays) {
  const Mesh2D mesh(33, 16);
  PlatformWorkloadConfig cfg;
  cfg.jobs = 1000;
  cfg.days = 30.0;
  const auto jobs = platform_workload(cfg, mesh);
  const double span_days = jobs.back().submit.as_sec() / 86400.0;
  // The horizon is a target, not a cutoff; allow generous slack.
  EXPECT_GT(span_days, 20.0);
  EXPECT_LT(span_days, 40.0);
}

// ----------------------------------------------------------- simulator --

PlatformWorkloadConfig small_trace() {
  PlatformWorkloadConfig wc;
  wc.jobs = 150;
  wc.days = 5.0;
  return wc;
}

TEST(PlatformSimulator, FailureFreeRunHasZeroWaste) {
  const Mesh2D mesh(16, 8);
  PlatformConfig cfg;
  cfg.node_mtbf = Time::zero();  // no failures -> no checkpoints either
  PlatformSimulator sim(mesh, cfg);
  sim.submit(platform_workload(small_trace(), mesh));
  const PlatformResult r = sim.run();
  EXPECT_EQ(r.jobs, 150);
  EXPECT_TRUE(r.balanced());
  EXPECT_DOUBLE_EQ(r.waste(), 0.0);
  EXPECT_EQ(r.rollbacks, 0);
  EXPECT_EQ(r.ckpts_committed, 0);
  EXPECT_GT(r.utilization, 0.0);
}

TEST(PlatformSimulator, UsefulWorkEqualsTheTraceExactly) {
  // Rollbacks recompute lost work, so whatever the failure history,
  // committed useful node-seconds must equal the trace's work total.
  const Mesh2D mesh(16, 8);
  PlatformConfig cfg;
  cfg.node_mtbf = Time::sec(5.0 * 86400.0);  // hot machine: many crashes
  cfg.io_disks = 4;
  PlatformSimulator sim(mesh, cfg);
  const auto trace = platform_workload(small_trace(), mesh);
  double expect = 0.0;
  for (const PlatformJob& j : trace)
    expect += j.work.as_sec() * static_cast<double>(j.nodes());
  sim.submit(trace);
  const PlatformResult r = sim.run();
  EXPECT_EQ(r.jobs, 150);
  EXPECT_GT(r.rollbacks, 0);
  EXPECT_TRUE(r.balanced());
  EXPECT_NEAR(r.useful_node_seconds, expect, expect * 1e-6);
  EXPECT_GT(r.waste(), 0.0);
}

TEST(PlatformSimulator, AccountingBalancesUnderEveryStrategy) {
  const Mesh2D mesh(16, 8);
  for (const CheckpointStrategy s : {CheckpointStrategy::Uncoordinated,
                                     CheckpointStrategy::FifoCooperative,
                                     CheckpointStrategy::OrderedCooperative}) {
    PlatformConfig cfg;
    cfg.strategy = s;
    cfg.node_mtbf = Time::sec(10.0 * 86400.0);
    cfg.io_disks = 2;  // starve the CFS so the queue actually forms
    PlatformSimulator sim(mesh, cfg);
    sim.submit(platform_workload(small_trace(), mesh));
    const PlatformResult r = sim.run();
    EXPECT_EQ(r.jobs, 150) << strategy_name(s);
    EXPECT_TRUE(r.balanced()) << strategy_name(s);
    EXPECT_GT(r.ckpts_committed, 0) << strategy_name(s);
  }
}

TEST(PlatformSimulator, CooperativeBeatsUncoordinatedWhenCfsSaturated) {
  // The headline claim (docs/MODEL.md §14): with the CFS saturated,
  // serializing checkpoint writes wastes less of the platform than
  // letting them stretch each other.
  // Full bench scale: the effect is real but sits inside the noise of
  // a single fault trace on toy configs (see bench/shared_platform.cpp
  // defaults — this is the exhibit's headline configuration).
  const Mesh2D mesh(33, 16);
  PlatformWorkloadConfig wc;
  wc.jobs = 1000;
  wc.days = 30.0;
  const auto trace = platform_workload(wc, mesh);
  double waste[2] = {0.0, 0.0};
  const CheckpointStrategy strategies[2] = {
      CheckpointStrategy::Uncoordinated, CheckpointStrategy::FifoCooperative};
  for (int i = 0; i < 2; ++i) {
    PlatformConfig cfg;
    cfg.strategy = strategies[i];
    cfg.node_mtbf = Time::sec(50.0 * 86400.0);
    cfg.io_disks = 4;
    PlatformSimulator sim(mesh, cfg);
    sim.submit(trace);
    waste[i] = sim.run().waste();
  }
  EXPECT_LT(waste[1], waste[0]);
}

// One small month under each strategy, pinned exactly: a change to
// WaitQueue::schedule_pass (shared with the batch simulator) that moves
// any job start shows up here.
TEST(PlatformSimulator, SmallMonthGoldens) {
  const Mesh2D mesh(16, 8);
  const auto trace = platform_workload(small_trace(), mesh);
  struct Point {
    CheckpointStrategy strategy;
    std::int64_t backfilled;
    double waste;
  };
  const Point golden[] = {
      {CheckpointStrategy::Uncoordinated, 99, 0.36106492156927983},
      {CheckpointStrategy::FifoCooperative, 99, 0.36221856944126163},
      {CheckpointStrategy::OrderedCooperative, 99, 0.36221856944126163},
  };
  for (const Point& p : golden) {
    PlatformConfig cfg;
    cfg.strategy = p.strategy;
    cfg.node_mtbf = Time::sec(10.0 * 86400.0);
    cfg.io_disks = 2;
    PlatformSimulator sim(mesh, cfg);
    sim.submit(trace);
    const PlatformResult r = sim.run();
    EXPECT_EQ(r.backfilled, p.backfilled) << strategy_name(p.strategy);
    EXPECT_EQ(r.waste(), p.waste) << strategy_name(p.strategy);
  }
}

TEST(PlatformSimulator, ResultIsDeterministic) {
  const Mesh2D mesh(16, 8);
  auto once = [&] {
    PlatformConfig cfg;
    cfg.strategy = CheckpointStrategy::OrderedCooperative;
    cfg.node_mtbf = Time::sec(20.0 * 86400.0);
    cfg.io_disks = 2;
    PlatformSimulator sim(mesh, cfg);
    sim.submit(platform_workload(small_trace(), mesh));
    return sim.run();
  };
  const PlatformResult a = once();
  const PlatformResult b = once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.ckpts_committed, b.ckpts_committed);
  EXPECT_DOUBLE_EQ(a.waste(), b.waste());
  EXPECT_DOUBLE_EQ(a.useful_node_seconds, b.useful_node_seconds);
}

}  // namespace
}  // namespace hpccsim::sched
