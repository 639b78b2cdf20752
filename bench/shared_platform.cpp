// Exhibit A13: a month of shared-platform production scheduling.
//
// One run simulates ~30 days of a 33x16 space-shared machine working
// through ~1000 jobs from five application communities, with node
// crashes rolling jobs back to their last checkpoint and every
// checkpoint/restore fighting for the same few-MB/s CFS. The three
// checkpoint-ordering strategies from src/sched/platform.hpp run as
// sweep points over the SAME workload and the SAME fault trace (common
// random numbers), so the waste column isolates the ordering policy:
// cooperative serialization should beat the uncoordinated Young/Daly
// baseline on platform waste, and the harness fails if it doesn't.
//
// Determinism: each strategy owns an engine/simulator, run under
// parallel_for's static partition; registries merge in strategy order,
// so stdout and --json are byte-identical at any --jobs value.
#include <cstdio>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/platform.hpp"
#include "sched/workload.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace hpccsim;
using namespace hpccsim::sched;

struct StrategyRun {
  CheckpointStrategy strategy = CheckpointStrategy::Uncoordinated;
  PlatformResult result;
  obs::Registry registry;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("shared_platform",
                 "a month of space-shared production with interfering "
                 "checkpoints");
  args.add_option("width", "mesh columns", "33");
  args.add_option("height", "mesh rows", "16");
  args.add_option("njobs", "jobs in the month's trace", "1000");
  args.add_option("days", "target span of the arrival process", "30");
  args.add_option("node-mtbf-days", "per-node MTBF in days", "50");
  // Four disks puts the aggregate at ~4.4 MB/s — the sustained (not
  // peak) CFS rate of the era, and the saturated regime where
  // checkpoint ordering is worth having.
  args.add_option("io-disks", "CFS disk count (sets aggregate bandwidth)",
                  "4");
  args.add_option("seed", "workload seed", "1992");
  args.add_option("failure-seed", "fault-trace seed", "1");
  args.add_jobs_option();
  args.add_json_option();
  args.add_flag("csv", "emit CSV");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (args.flag("help")) {
    std::printf("%s", args.usage().c_str());
    return 0;
  }

  // Range checks before any work. The mesh is capped at 256 x 256
  // (65,536 nodes, 124x the Delta): the crash count grows with the node
  // count and every crash and scheduling pass scans the job table and
  // the mesh, so the default month already takes ~5 s at that size
  // (--jobs 1, 4-core Xeon, RelWithDebInfo).
  const std::int64_t width = args.integer("width", 1, 256);
  const std::int64_t height = args.integer("height", 1, 256);
  const std::int64_t njobs = args.integer("njobs", 1, 2147483647);
  const double days = args.real_above("days", 0.0);
  const double mtbf_days = args.real_at_least("node-mtbf-days", 0.0);
  const std::int64_t io_disks = args.integer("io-disks", 1, 2147483647);
  const mesh::Mesh2D mesh(static_cast<std::int32_t>(width),
                          static_cast<std::int32_t>(height));

  PlatformWorkloadConfig wc;
  wc.seed = static_cast<std::uint64_t>(args.integer("seed"));
  wc.jobs = static_cast<std::int32_t>(njobs);
  wc.days = days;
  const std::vector<PlatformJob> trace = platform_workload(wc, mesh);

  PlatformConfig base;
  base.node_mtbf = sim::Time::sec(mtbf_days * 86400.0);
  base.failure_seed = static_cast<std::uint64_t>(args.integer("failure-seed"));
  base.io_disks = static_cast<std::int32_t>(io_disks);

  // Constructed before the sweep: wall_time_s runs construction->write.
  obs::BenchMetrics bm("shared_platform");
  bm.config("width", width);
  bm.config("height", height);
  bm.config("njobs", njobs);
  bm.config("days", args.str("days"));
  bm.config("node_mtbf_days", args.str("node-mtbf-days"));
  bm.config("io_disks", io_disks);
  bm.config("seed", args.integer("seed"));
  bm.config("failure_seed", args.integer("failure-seed"));
  bm.set_threads(args.jobs());

  const std::vector<CheckpointStrategy> strategies = {
      CheckpointStrategy::Uncoordinated,
      CheckpointStrategy::FifoCooperative,
      CheckpointStrategy::OrderedCooperative,
  };
  std::vector<StrategyRun> runs(strategies.size());
  parallel_for(strategies.size(), args.jobs(), [&](std::size_t i) {
    StrategyRun& r = runs[i];
    r.strategy = strategies[i];
    PlatformConfig cfg = base;
    cfg.strategy = r.strategy;
    PlatformSimulator sim(mesh, cfg);
    sim.submit(trace);
    r.result = sim.run();
    sim.export_counters(r.registry);
  });

  std::printf("== A13: %d jobs over ~%.0f days on %dx%d, node MTBF %.0f "
              "days, CFS %.1f MB/s ==\n",
              wc.jobs, wc.days, mesh.width(), mesh.height(),
              mtbf_days,
              io::effective_cfs_bandwidth(io::CfsConfig{}, base.io_disks)
                      .bytes_per_sec() /
                  1e6);

  Table t({"strategy", "waste %", "util %", "useful nh", "ckpt nh", "lost nh",
           "restore nh", "rollbk", "ckpts", "aborted", "wait min",
           "b-slowdown", "io-wait s"});
  obs::Registry merged;
  for (const StrategyRun& r : runs) {
    const PlatformResult& p = r.result;
    bm.add_sim_time(p.makespan);
    t.add_row({strategy_name(r.strategy), Table::num(p.waste() * 100.0, 2),
               Table::num(p.utilization * 100.0, 1),
               Table::num(p.useful_node_seconds / 3600.0, 0),
               Table::num(p.ckpt_node_seconds / 3600.0, 0),
               Table::num(p.lost_node_seconds / 3600.0, 0),
               Table::num(p.restore_node_seconds / 3600.0, 0),
               Table::integer(p.rollbacks), Table::integer(p.ckpts_committed),
               Table::integer(p.ckpts_aborted),
               Table::num(p.wait_minutes.mean(), 1),
               Table::num(p.bounded_slowdown.mean(), 2),
               Table::num(p.ckpt_queue_wait_s.mean(), 1)});
    merged.merge(r.registry);
  }
  std::printf("%s\n", args.flag("csv") ? t.csv().c_str() : t.ascii().c_str());
  std::printf("expected: serializing checkpoint writes keeps every write "
              "short (no mutual stretching), and waiting jobs keep "
              "computing, so both cooperative strategies waste less of "
              "the platform than uncoordinated Young/Daly; smallest-first "
              "ordering shaves the queue further\n");

  const double waste_unc = runs[0].result.waste();
  const double waste_fifo = runs[1].result.waste();
  const double waste_ord = runs[2].result.waste();
  bm.metric("waste_pct_uncoordinated", waste_unc * 100.0);
  bm.metric("waste_pct_fifo_coop", waste_fifo * 100.0);
  bm.metric("waste_pct_ordered_coop", waste_ord * 100.0);
  bm.metric("utilization_pct_uncoordinated",
            runs[0].result.utilization * 100.0);
  bm.metric("bounded_slowdown_ordered",
            runs[2].result.bounded_slowdown.mean());
  bm.metric("jobs_total", static_cast<std::int64_t>(wc.jobs) * 3);
  bm.attach_counters(merged);
  bm.write_file(args.json_path());

  const bool coop_wins =
      waste_fifo < waste_unc || waste_ord < waste_unc;
  std::printf("verdict: %s (uncoordinated %.2f%%, fifo-coop %.2f%%, "
              "ordered-coop %.2f%% platform waste)\n",
              coop_wins ? "PASS" : "CHECK", waste_unc * 100.0,
              waste_fifo * 100.0, waste_ord * 100.0);
  return coop_wins ? 0 : 1;
}
