// The fluid WAN model's shared substrate: widest-path route caching and
// batch transfer simulation on the max-min FlowEngine.
//
// `Wan::transfer` prices one transfer on an idle network with the
// store-and-forward packet model; `simulate_flows` answers the
// follow-on question — what happens when transfers overlap — by
// running the whole batch as concurrent flows on the incremental
// FlowEngine (src/wan/flow_engine.hpp), the only max-min solver in
// the library.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/time.hpp"
#include "util/units.hpp"
#include "wan/wan.hpp"

namespace hpccsim::wan {

/// Memoized widest-path routing over a fixed topology. Routes are
/// computed lazily per (src, dst) pair and never invalidated (the Wan
/// is immutable once simulation starts), so a million transfers between
/// a few dozen sites pay for a few dozen Dijkstra runs, not a million.
class RouteTable {
 public:
  explicit RouteTable(const Wan& wan);

  struct Route {
    std::vector<SiteId> sites;        ///< src first, dst last
    std::vector<std::int32_t> links;  ///< indices into wan().links()
    double bottleneck_bps = 0.0;      ///< slowest link on the route
  };

  /// Cached widest path from src to dst; nullptr if disconnected.
  /// Pointers stay valid for the table's lifetime.
  const Route* route(SiteId src, SiteId dst);

  const Wan& wan() const { return *wan_; }

 private:
  enum class State : std::uint8_t { Unknown, Routed, Disconnected };
  const Wan* wan_;
  std::vector<State> state_;                     // site_count^2
  std::vector<std::unique_ptr<Route>> routes_;   // site_count^2
};

/// One transfer to simulate: `start` is the request time.
struct TransferRequest {
  SiteId src = 0;
  SiteId dst = 0;
  Bytes bytes = 0;
  sim::Time start;
};

struct TransferOutcome {
  bool ok = false;       ///< false: endpoints disconnected
  sim::Time finish;      ///< absolute completion time
  double slowdown = 0.0; ///< duration / idle-network duration (>= 1)
};

/// Simulate a batch of concurrent transfers sharing links by max-min
/// fairness. Outcomes are positional: outcome i belongs to request i,
/// whatever order the flows complete in. A request between
/// disconnected sites gets `ok == false`; src == dst or zero bytes is
/// a ContractError.
std::vector<TransferOutcome> simulate_flows(
    RouteTable& routes, const std::vector<TransferRequest>& requests);

}  // namespace hpccsim::wan
