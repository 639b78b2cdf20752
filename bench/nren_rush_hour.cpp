// Exhibit A7 (NREN extension): consortium rush hour, before and after
// the NREN upgrade.
//
// The paper's NREN component funds "technology development and
// coordination for gigabit networks". This harness quantifies the case:
// every partner pulls a results file off the Delta simultaneously
// (flow-level max-min sharing), on (a) the 1992 network as drawn in the
// figure, and (b) an NREN-upgraded network (T3 tails, gigabit
// backbone). Mean and worst transfer times tell the story.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "wan/consortium.hpp"
#include "wan/model.hpp"

namespace {

using namespace hpccsim;
using namespace hpccsim::wan;

struct RushResult {
  double mean_s = 0.0;
  double worst_s = 0.0;
  double mean_slowdown = 0.0;
};

RushResult rush_hour(const Wan& net, Bytes bytes) {
  const SiteId delta = net.site_by_name("Caltech-Delta");
  std::vector<TransferRequest> pulls;
  for (SiteId s = 0; s < net.site_count(); ++s) {
    if (s == delta) continue;
    const auto& name = net.site_name(s);
    if (name.rfind("NSFnet", 0) == 0 || name == "ESnet-Hub")
      continue;  // backbone nodes are not endpoints
    pulls.push_back({delta, s, bytes, sim::Time::zero()});
  }
  RouteTable routes(net);
  const std::vector<TransferOutcome> out = simulate_flows(routes, pulls);
  // Aggregate in request order (outcomes are positional), so the
  // floating-point sums do not depend on completion order.
  RushResult r;
  RunningStat dur, slow;
  for (std::size_t i = 0; i < out.size(); ++i) {
    dur.add((out[i].finish - pulls[i].start).as_sec());
    slow.add(out[i].slowdown);
  }
  r.mean_s = dur.mean();
  r.worst_s = dur.max();
  r.mean_slowdown = slow.mean();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("nren_rush_hour",
                 "simultaneous consortium pulls, 1992 vs NREN network");
  args.add_option("mb", "file sizes in MB", "1,10,100");
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

  // 10,000 MB caps the slowest point: the 56 kbps tail (7,000 B/s)
  // drains 1e10 B in ~1.4e6 s, far inside sim::Time's ~1.8e7 s range
  // (2^64 ps).
  const std::vector<std::int64_t> sizes_mb = args.int_list("mb", 1, 10000);
  const Wan now = consortium_network();
  const Wan nren = nren_upgraded_network();

  std::printf("== A7: every partner pulls from the Delta at once ==\n");
  obs::BenchMetrics bm("nren_rush_hour");
  bm.config("mb", args.str("mb"));
  double worst_1992 = 0.0, worst_nren = 0.0;

  Table t({"file (MB)", "network", "mean transfer (s)", "worst (s)",
           "mean slowdown"});
  for (const std::int64_t mb : sizes_mb) {
    const Bytes bytes = static_cast<Bytes>(mb) * 1000 * 1000;
    for (const auto& [label, net] :
         {std::pair<const char*, const Wan*>{"1992 (as drawn)", &now},
          std::pair<const char*, const Wan*>{"NREN upgrade", &nren}}) {
      const RushResult r = rush_hour(*net, bytes);
      bm.add_sim_time(sim::Time::sec(r.worst_s));
      if (net == &nren) worst_nren = std::max(worst_nren, r.worst_s);
      else worst_1992 = std::max(worst_1992, r.worst_s);
      t.add_row({Table::integer(mb), label, Table::num(r.mean_s, 1),
                 Table::num(r.worst_s, 1), Table::num(r.mean_slowdown, 2)});
    }
  }
  std::printf("%s\n", args.flag("csv") ? t.csv().c_str() : t.ascii().c_str());
  std::printf("expected: the 1992 worst case (56 kbps tail) is hours for "
              "100 MB; the NREN upgrade collapses the spread by ~2 orders "
              "of magnitude — the quantitative case for the program's "
              "gigabit line item\n");

  bm.metric("worst_1992_s", worst_1992);
  bm.metric("worst_nren_s", worst_nren);
  bm.write_file(args.json_path());
  return 0;
}
