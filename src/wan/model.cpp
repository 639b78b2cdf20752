#include "wan/model.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "wan/flow_engine.hpp"

namespace hpccsim::wan {

RouteTable::RouteTable(const Wan& wan) : wan_(&wan) {
  const auto n = static_cast<std::size_t>(wan.site_count());
  state_.assign(n * n, State::Unknown);
  routes_.resize(n * n);
}

const RouteTable::Route* RouteTable::route(SiteId src, SiteId dst) {
  HPCCSIM_EXPECTS(src >= 0 && src < wan_->site_count());
  HPCCSIM_EXPECTS(dst >= 0 && dst < wan_->site_count());
  HPCCSIM_EXPECTS(src != dst);
  const auto n = static_cast<std::size_t>(wan_->site_count());
  const std::size_t idx =
      static_cast<std::size_t>(src) * n + static_cast<std::size_t>(dst);
  if (state_[idx] == State::Unknown) {
    auto path = wan_->widest_path(src, dst);
    if (!path) {
      state_[idx] = State::Disconnected;
    } else {
      auto r = std::make_unique<Route>();
      r->sites = std::move(*path);
      double bottleneck = std::numeric_limits<double>::infinity();
      for (const std::size_t l : wan_->path_links(r->sites)) {
        r->links.push_back(static_cast<std::int32_t>(l));
        bottleneck = std::min(
            bottleneck,
            link_bandwidth(wan_->links()[l].type).bytes_per_sec());
      }
      r->bottleneck_bps = bottleneck;
      routes_[idx] = std::move(r);
      state_[idx] = State::Routed;
    }
  }
  return state_[idx] == State::Routed ? routes_[idx].get() : nullptr;
}

std::vector<TransferOutcome> simulate_flows(
    RouteTable& routes, const std::vector<TransferRequest>& requests) {
  std::vector<TransferOutcome> out(requests.size());

  // Feed the engine in (start, index) order; it delivers completions as
  // simulated time advances past them.
  std::vector<std::size_t> order;
  order.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) order.push_back(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return requests[a].start < requests[b].start;
                   });

  FlowEngine engine(routes);
  const auto on_complete = [&](const FlowEngine::Completion& c) {
    TransferOutcome& o = out[c.tag];
    o.ok = true;
    o.finish = c.finish;
    const double idle_s = static_cast<double>(c.bytes) / c.bottleneck_bps;
    o.slowdown = (c.finish - c.start).as_sec() / idle_s;
  };
  for (const std::size_t i : order) {
    const TransferRequest& q = requests[i];
    if (routes.route(q.src, q.dst) == nullptr) continue;
    engine.run_until(q.start, on_complete);
    engine.start(q.src, q.dst, q.bytes, i);
  }
  engine.run_to_completion(on_complete);
  return out;
}

}  // namespace hpccsim::wan
