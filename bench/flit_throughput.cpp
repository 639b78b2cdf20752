// Flit-network throughput microbench: wall-clock cost of the fast
// schedule (active-set stepping + idle-cycle skip + wormhole
// fast-forward) against the full-scan reference schedule, on identical
// traffic — the headline before/after exhibit for the flit hot-path
// overhaul (docs/PERF.md).
//
// Every point runs both schedules and cross-checks that they delivered
// every message at the identical cycle (the bench exits non-zero on any
// divergence, so the CI metrics run doubles as an equivalence check at
// bench scale). Wall times and flit-hops/s are host-dependent and
// therefore reported, never gated; the simulated spans and counters are
// deterministic and land in the --json metrics.
#include <cstdio>
#include <limits>

#include "mesh/flit.hpp"
#include "mesh/traffic.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hpccsim;
  using namespace hpccsim::mesh;
  ArgParser args("flit_throughput",
                 "flit-network fast path vs reference wall throughput");
  args.add_option("width", "mesh width", "16");
  args.add_option("height", "mesh height", "16");
  args.add_option("shape", "mesh as WxH, overrides width/height "
                  "(weak-scaling presets: 64x64, 128x128)", "");
  args.add_option("threads", "worker threads for the fast schedule", "1");
  args.add_option("messages", "messages per node per point", "40");
  args.add_option("bytes", "message size in bytes", "1024");
  args.add_option("routing", "xy | west-first", "xy");
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

  // Range checks run before any thread starts, so a bad value exits
  // with status 2 and a message instead of aborting. A side of at most
  // 4096 keeps every flat port index of FlitNetwork within int32.
  constexpr std::int64_t kMaxSide = 4096;
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  std::int32_t width =
      static_cast<std::int32_t>(args.integer("width", 1, kMaxSide));
  std::int32_t height =
      static_cast<std::int32_t>(args.integer("height", 1, kMaxSide));
  const auto messages =
      static_cast<std::int32_t>(args.integer("messages", 1, kInt32Max));
  const auto bytes = static_cast<Bytes>(args.integer("bytes", 1, kInt32Max));
  const int threads = static_cast<int>(args.integer("threads", 1, 256));
  if (!args.str("shape").empty()) {
    int w = 0, h = 0;
    if (std::sscanf(args.str("shape").c_str(), "%dx%d", &w, &h) != 2 ||
        w < 1 || h < 1 || w > kMaxSide || h > kMaxSide) {
      std::fprintf(stderr, "bad --shape '%s' (want WxH, e.g. 64x64)\n",
                   args.str("shape").c_str());
      return 2;
    }
    width = w;
    height = h;
  }

  const Mesh2D mesh(width, height);
  FlitParams fp;
  fp.routing = args.str("routing") == "west-first" ? RouteAlgo::WestFirst
                                                   : RouteAlgo::XY;
  std::printf("== flit throughput: %s mesh, %s routing, %d thread%s ==\n",
              mesh.describe().c_str(), route_algo_name(fp.routing), threads,
              threads == 1 ? "" : "s");

  // Sparse -> saturating offered load; sparse points are where the
  // skip/fast-forward machinery pays, saturated points are where the
  // active set degenerates to (almost) every router and only the SoA
  // layout helps.
  const std::vector<double> gaps{50000.0, 5000.0, 20.0};

  Table t({"gap (us)", "cycles", "link flits", "skipped", "ffwd flits",
           "fast (ms)", "ref (ms)", "fast Mhop/s", "speedup"});
  obs::BenchMetrics bm("flit_throughput");
  bm.config("width", static_cast<std::int64_t>(width));
  bm.config("height", static_cast<std::int64_t>(height));
  bm.config("messages", args.integer("messages"));
  bm.config("bytes", args.integer("bytes"));
  bm.config("routing", route_algo_name(fp.routing));
  bm.set_threads(threads);

  obs::Registry totals;
  double wall_fast = 0.0, wall_ref = 0.0;
  std::int64_t total_hops = 0;
  int rc = 0;
  for (const double gap_us : gaps) {
    TrafficConfig cfg;
    cfg.messages_per_node = messages;
    cfg.message_bytes = bytes;
    cfg.mean_gap = sim::Time::us(gap_us);
    cfg.seed = 1992;
    const auto trace = generate_traffic(mesh, cfg);

    FlitNetwork fast(mesh, fp);
    FlitNetwork ref(mesh, fp);
    // The reference stays sequential, so with --threads > 1 the
    // cross-check below doubles as a parallel-vs-sequential oracle at
    // bench scale.
    fast.set_threads(threads);
    const double cyc_us = fast.cycle_time().as_us();
    for (const auto& r : trace) {
      const auto at = static_cast<std::uint64_t>(r.depart.as_us() / cyc_us);
      fast.inject(r.src, r.dst, r.bytes, at);
      ref.inject(r.src, r.dst, r.bytes, at);
    }

    obs::WallTimer tw;
    fast.run();
    const double fast_s = tw.elapsed_s();
    tw.restart();
    ref.run_reference();
    const double ref_s = tw.elapsed_s();

    // Equivalence cross-check at bench scale: any divergence is a bug
    // in the fast schedule.
    for (std::size_t i = 0; i < fast.messages().size(); ++i) {
      if (fast.messages()[i].delivered_cycle !=
          ref.messages()[i].delivered_cycle) {
        std::fprintf(stderr,
                     "FATAL: fast path diverged from reference at gap=%g "
                     "message %zu\n",
                     gap_us, i);
        rc = 1;
      }
    }
    if (fast.link_flits() != ref.link_flits() ||
        fast.cycle() != ref.cycle()) {
      std::fprintf(stderr, "FATAL: counter divergence at gap=%g\n", gap_us);
      rc = 1;
    }

    wall_fast += fast_s;
    wall_ref += ref_s;
    total_hops += static_cast<std::int64_t>(fast.link_flits());
    bm.add_sim_time(fast.cycle_time() * fast.cycle());
    obs::Registry point;
    fast.dump_counters(point);
    totals.merge(point);

    t.add_row({Table::num(gap_us, 0),
               Table::num(static_cast<double>(fast.cycle()), 0),
               Table::num(static_cast<double>(fast.link_flits()), 0),
               Table::num(static_cast<double>(fast.skipped_cycles()), 0),
               Table::num(static_cast<double>(fast.fastforwarded_flits()), 0),
               Table::num(fast_s * 1e3, 2), Table::num(ref_s * 1e3, 2),
               Table::num(static_cast<double>(fast.link_flits()) / fast_s /
                              1e6,
                          1),
               Table::num(ref_s / fast_s, 1)});
  }
  std::printf("%s\n", args.flag("csv") ? t.csv().c_str() : t.ascii().c_str());
  std::printf("expected: sparse points fast-forward nearly everything "
              "(speedup bounded only by idle-window length); saturated "
              "points converge to the SoA constant-factor win\n");

  bm.metric("link_flits", total_hops);
  bm.metric("wall_fast_s", wall_fast);
  bm.metric("wall_reference_s", wall_ref);
  bm.metric("speedup", wall_ref / wall_fast);
  bm.attach_counters(totals);
  bm.write_file(args.json_path());
  return rc;
}
