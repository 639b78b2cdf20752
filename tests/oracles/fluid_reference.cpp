#include "oracles/fluid_reference.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

namespace hpccsim::wan::oracle {

FluidReference::FluidReference(const Wan& wan,
                               std::vector<TransferRequest> flows)
    : wan_(&wan), flows_(std::move(flows)) {
  for (const TransferRequest& q : flows_) {
    HPCCSIM_EXPECTS(q.bytes > 0);
    HPCCSIM_EXPECTS(q.src != q.dst);
    const auto path = wan_->widest_path(q.src, q.dst);
    if (!path) throw std::invalid_argument("flow endpoints are disconnected");
    routes_.push_back(wan_->path_links(*path));
  }
}

std::vector<double> FluidReference::fair_rates(
    const std::vector<std::size_t>& active,
    std::vector<std::size_t>* bottleneck_order) const {
  // Progressive water-filling: repeatedly find the most-constrained link
  // (smallest equal share among its unfrozen flows), freeze those flows
  // at that share, subtract, repeat. Ties on the smallest share resolve
  // to the lowest link index (the strict `<` below scans links in
  // ascending index order) — see the header for why the order is pinned.
  std::vector<double> rate(flows_.size(), 0.0);
  std::vector<double> cap(wan_->links().size());
  for (std::size_t l = 0; l < cap.size(); ++l)
    cap[l] = link_bandwidth(wan_->links()[l].type).bytes_per_sec();
  if (bottleneck_order) bottleneck_order->clear();

  std::vector<bool> frozen(flows_.size(), true);
  for (const std::size_t f : active) frozen[f] = false;

  for (;;) {
    // Count unfrozen flows per link.
    std::vector<int> users(cap.size(), 0);
    for (const std::size_t f : active)
      if (!frozen[f])
        for (const std::size_t l : routes_[f]) ++users[l];

    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = cap.size();
    for (std::size_t l = 0; l < cap.size(); ++l) {
      if (users[l] == 0) continue;
      const double share = cap[l] / users[l];
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    if (best_link == cap.size()) break;  // everyone frozen
    if (bottleneck_order) bottleneck_order->push_back(best_link);

    // Freeze the bottleneck link's flows at the fair share.
    for (const std::size_t f : active) {
      if (frozen[f]) continue;
      const auto& ls = routes_[f];
      if (std::find(ls.begin(), ls.end(), best_link) == ls.end()) continue;
      rate[f] = best_share;
      frozen[f] = true;
      for (const std::size_t l : ls) cap[l] = std::max(0.0, cap[l] - best_share);
    }
  }
  return rate;
}

TransferOutcome FluidReference::finished(std::size_t f,
                                         sim::Time finish) const {
  // Idle-network fluid duration: bytes / route bottleneck.
  double bottleneck = std::numeric_limits<double>::infinity();
  for (const std::size_t l : routes_[f])
    bottleneck = std::min(
        bottleneck, link_bandwidth(wan_->links()[l].type).bytes_per_sec());
  const double idle_s = static_cast<double>(flows_[f].bytes) / bottleneck;
  return TransferOutcome{true, finish,
                         (finish - flows_[f].start).as_sec() / idle_s};
}

std::vector<TransferOutcome> FluidReference::run_reference() const {
  const double kEps = 1e-6;  // bytes
  std::vector<TransferOutcome> out(flows_.size());
  std::vector<double> remaining(flows_.size());
  for (std::size_t f = 0; f < flows_.size(); ++f)
    remaining[f] = static_cast<double>(flows_[f].bytes);

  // Pending starts, earliest first.
  std::vector<std::size_t> pending(flows_.size());
  for (std::size_t f = 0; f < pending.size(); ++f) pending[f] = f;
  std::sort(pending.begin(), pending.end(),
            [this](std::size_t a, std::size_t b) {
              return flows_[a].start < flows_[b].start;
            });
  std::size_t next_pending = 0;
  std::vector<std::size_t> active;
  double now_s = 0.0;

  while (next_pending < pending.size() || !active.empty()) {
    // Admit flows that start now.
    while (next_pending < pending.size() &&
           flows_[pending[next_pending]].start.as_sec() <= now_s + 1e-15) {
      active.push_back(pending[next_pending]);
      ++next_pending;
    }
    const std::vector<double> rate = fair_rates(active);

    // Time to the next event: a pending start or the first completion.
    double dt = std::numeric_limits<double>::infinity();
    if (next_pending < pending.size())
      dt = flows_[pending[next_pending]].start.as_sec() - now_s;
    for (const std::size_t f : active) {
      HPCCSIM_ASSERT(rate[f] > 0.0);
      dt = std::min(dt, remaining[f] / rate[f]);
    }
    HPCCSIM_ASSERT(dt >= 0.0 &&
                   dt < std::numeric_limits<double>::infinity());

    // Advance the fluid.
    now_s += dt;
    for (const std::size_t f : active) remaining[f] -= rate[f] * dt;

    // Retire completed flows.
    std::vector<std::size_t> still;
    for (const std::size_t f : active) {
      if (remaining[f] <= kEps) {
        out[f] = finished(f, sim::Time::sec(now_s));
      } else {
        still.push_back(f);
      }
    }
    active = std::move(still);
  }
  return out;
}

}  // namespace hpccsim::wan::oracle
