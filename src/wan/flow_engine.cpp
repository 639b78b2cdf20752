#include "wan/flow_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/assert.hpp"

namespace hpccsim::wan {
namespace {

// A completion event may land a whisper early from picosecond rounding
// of `remaining / rate`; anything below this many bytes counts as done
// (flows are whole bytes, so no real payload is ever this small).
constexpr double kEpsBytes = 1e-2;

// Rate changes below this relative threshold are absorbed rather than
// rescheduled, which keeps floating-point noise from rippling through
// the whole network.
constexpr double kRateEps = 1e-9;

}  // namespace

FlowEngine::FlowEngine(RouteTable& routes) : routes_(&routes) {
  const auto& links = routes.wan().links();
  link_flows_.resize(links.size());
  cap_.resize(links.size());
  rate_sum_.assign(links.size(), 0.0);
  link_mark_.assign(links.size(), 0);
  link_done_.assign(links.size(), 0);
  residual_.assign(links.size(), 0.0);
  users_.assign(links.size(), 0);
  for (std::size_t l = 0; l < links.size(); ++l)
    cap_[l] = link_bandwidth(links[l].type).bytes_per_sec();
}

FlowEngine::FlowId FlowEngine::alloc_slot() {
  if (!free_.empty()) {
    const FlowId f = free_.back();
    free_.pop_back();
    HPCCSIM_ASSERT(heap_pos_[f] < 0);
    return f;
  }
  const FlowId f = static_cast<FlowId>(src_.size());
  src_.push_back(0);
  dst_.push_back(0);
  bytes_.push_back(0);
  remaining_.push_back(0.0);
  rate_.push_back(0.0);
  start_ps_.push_back(0);
  synced_ps_.push_back(0);
  tag_.push_back(0);
  route_.push_back(nullptr);
  link_pos_.emplace_back();
  flow_mark_.push_back(0);
  new_rate_.push_back(0.0);
  frozen_.push_back(0);
  heap_pos_.push_back(-1);
  return f;
}

FlowEngine::FlowId FlowEngine::start(SiteId src, SiteId dst, Bytes bytes,
                                     std::uint64_t tag) {
  HPCCSIM_EXPECTS(bytes > 0);
  HPCCSIM_EXPECTS(src != dst);
  const RouteTable::Route* r = routes_->route(src, dst);
  if (r == nullptr)
    throw std::invalid_argument("flow endpoints are disconnected");

  const FlowId f = alloc_slot();
  src_[f] = src;
  dst_[f] = dst;
  bytes_[f] = bytes;
  remaining_[f] = static_cast<double>(bytes);
  rate_[f] = 0.0;
  start_ps_[f] = now_ps_;
  synced_ps_[f] = now_ps_;
  tag_[f] = tag;
  route_[f] = r;
  link_pos_[f].assign(r->links.size(), 0);
  for (std::size_t i = 0; i < r->links.size(); ++i) {
    const std::int32_t l = r->links[i];
    link_pos_[f][i] = static_cast<std::int32_t>(link_flows_[l].size());
    link_flows_[l].push_back(LinkEntry{f, static_cast<std::int32_t>(i)});
  }

  ++active_count_;
  stats_.active_peak = std::max<std::int64_t>(stats_.active_peak,
                                              active_count_);
  ++stats_.started;

  bump_epoch();
  add_to_set(f);
  recompute();
  return f;
}

void FlowEngine::bump_epoch() {
  if (++epoch_ == 0) {
    // Epoch counter wrapped: stale marks could alias, so reset them.
    std::fill(flow_mark_.begin(), flow_mark_.end(), 0u);
    std::fill(link_mark_.begin(), link_mark_.end(), 0u);
    std::fill(link_done_.begin(), link_done_.end(), 0u);
    epoch_ = 1;
  }
}

bool FlowEngine::add_to_set(FlowId f) {
  if (flow_mark_[f] == epoch_) return false;
  flow_mark_[f] = epoch_;
  set_.push_back(f);
  for (const std::int32_t l : route_[f]->links) {
    if (link_mark_[l] != epoch_) {
      link_mark_[l] = epoch_;
      mlinks_.push_back(l);
    }
  }
  return true;
}

// Each link is expanded at most once per epoch: flow lists do not change
// inside one recompute (and the departing flow that process() passes as
// `except` is unlinked right after), so a second pass would add nothing.
bool FlowEngine::add_link_flows(std::int32_t l, FlowId except) {
  if (link_done_[l] == epoch_) return false;
  link_done_[l] = epoch_;
  bool grew = false;
  for (const LinkEntry& e : link_flows_[l])
    if (e.flow != except) grew |= add_to_set(e.flow);
  return grew;
}

void FlowEngine::sync_remaining(FlowId f) {
  if (synced_ps_[f] != now_ps_) {
    remaining_[f] -= rate_[f] *
                     (static_cast<double>(now_ps_ - synced_ps_[f]) * 1e-12);
    if (remaining_[f] < 0.0) remaining_[f] = 0.0;
    synced_ps_[f] = now_ps_;
  }
}

void FlowEngine::schedule(FlowId f) {
  HPCCSIM_ASSERT(rate_[f] > 0.0);
  std::uint64_t dt_ps = 0;  // already-drained flows complete *now*
  if (remaining_[f] > kEpsBytes) {
    // Round up to a whole picosecond so `remaining` has hit ~zero when
    // the event fires (any shortfall is below kEpsBytes).
    const double dt_s = remaining_[f] / rate_[f];
    dt_ps = static_cast<std::uint64_t>(dt_s * 1e12) + 1;
  }
  const std::uint64_t when = now_ps_ + dt_ps;
  HPCCSIM_ASSERT(when >= now_ps_);  // overflow = simulated centuries
  // Move the flow's one entry; a fresh sequence number keeps equal
  // finish times in schedule order.
  const HeapEntry e{when, seq_++, f};
  const std::int32_t at = heap_pos_[f];
  if (at < 0) {
    heap_.push_back(e);
    heap_sift_up(heap_.size() - 1, e);
  } else if (before(e, heap_[static_cast<std::size_t>(at)])) {
    heap_sift_up(static_cast<std::size_t>(at), e);
  } else {
    heap_sift_down(static_cast<std::size_t>(at), e);
  }
}

void FlowEngine::heap_place(std::size_t i, const HeapEntry& e) {
  heap_[i] = e;
  heap_pos_[e.flow] = static_cast<std::int32_t>(i);
}

// Hole-based sifts: `e` is written once, at its final index.
void FlowEngine::heap_sift_up(std::size_t i, HeapEntry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    heap_place(i, heap_[parent]);
    i = parent;
  }
  heap_place(i, e);
}

void FlowEngine::heap_sift_down(std::size_t i, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && before(heap_[c + 1], heap_[c])) ++c;
    if (!before(heap_[c], e)) break;
    heap_place(i, heap_[c]);
    i = c;
  }
  heap_place(i, e);
}

void FlowEngine::heap_pop() {
  heap_pos_[heap_.front().flow] = -1;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0, last);
}

// The saturation-gated ripple (see the header comment). `set_` arrives
// seeded by the caller; each pass water-fills the affected set against
// residual capacities, applies the rate changes, and expands the set
// through every link that was saturated before or after a change (an
// unsaturated link imposes no max-min constraint in either direction,
// so no change can propagate across it) and through every bottleneck
// that a non-member outruns (the members' share there is not yet
// max-min: the faster flow must give way). Terminates because the set
// only grows; at the fixpoint every member's bottleneck carries no
// faster flow and no constraint reaches outside the set, which is the
// global max-min allocation.
void FlowEngine::recompute() {
  if (set_.empty()) return;
  for (;;) {
    ++stats_.recomputes;
    // Pinned tie-break: bottleneck candidates are examined in ascending
    // link index order, exactly like the test oracle's fair_rates.
    std::sort(mlinks_.begin(), mlinks_.end());

    // Residual capacity per member link with the affected flows' own
    // rates added back (they are being re-assigned); all other flows
    // stay fixed at their current rates inside rate_sum_.
    for (const std::int32_t l : mlinks_) {
      residual_[l] = cap_[l] - rate_sum_[l];
      users_[l] = 0;
    }
    for (const FlowId f : set_) {
      for (const std::int32_t l : route_[f]->links) {
        residual_[l] += rate_[f];
        ++users_[l];
      }
    }
    for (const std::int32_t l : mlinks_)
      if (residual_[l] < 0.0) residual_[l] = 0.0;

    // Progressive water-filling restricted to the affected set.
    overtaken_.clear();
    for (const FlowId f : set_) frozen_[f] = 0;
    std::size_t unfrozen = set_.size();
    while (unfrozen > 0) {
      double best_share = std::numeric_limits<double>::infinity();
      std::int32_t best = -1;
      for (const std::int32_t l : mlinks_) {
        if (users_[l] == 0) continue;
        const double share = residual_[l] / users_[l];
        if (share < best_share) {
          best_share = share;
          best = l;
        }
      }
      HPCCSIM_ASSERT(best >= 0);
      // Freeze the unfrozen members crossing `best`. Every one of them
      // subtracts the same best_share (clamped at 0) from its links, so
      // the order they are visited in cannot change residual_.
      bool overtaken = false;
      for (const LinkEntry& e : link_flows_[best]) {
        const FlowId f = e.flow;
        if (flow_mark_[f] != epoch_) {
          // A non-member faster than this share keeps `best` from being
          // the members' max-min bottleneck: it must be re-rated too.
          overtaken |= rate_[f] - best_share > kRateEps * (best_share + 1.0);
          continue;
        }
        if (frozen_[f]) continue;
        new_rate_[f] = best_share;
        frozen_[f] = 1;
        --unfrozen;
        for (const std::int32_t l : route_[f]->links) {
          residual_[l] -= best_share;
          if (residual_[l] < 0.0) residual_[l] = 0.0;
          --users_[l];
        }
      }
      if (overtaken) overtaken_.push_back(best);
    }

    // Apply. A flow with no pending completion event (fresh arrival)
    // must be applied even on a "no change" so it gets scheduled.
    changed_.clear();
    dirty_links_.clear();
    for (const FlowId f : set_) {
      const double old = rate_[f];
      const double nu = new_rate_[f];
      if (heap_pos_[f] >= 0 && std::abs(nu - old) <= kRateEps * (old + 1.0))
        continue;
      sync_remaining(f);
      for (const std::int32_t l : route_[f]->links) {
        // A link saturated *before* the change frees capacity when the
        // rate drops — its flows must be re-examined.
        if (saturated(l)) dirty_links_.push_back(l);
        rate_sum_[l] += nu - old;
      }
      rate_[f] = nu;
      if (nu > 0.0) {
        ++stats_.rate_updates;
        schedule(f);
        changed_.push_back(f);
      }
    }

    // Expand through constraining links; stop at the fixpoint.
    bool grew = false;
    for (const std::int32_t l : overtaken_) grew |= add_link_flows(l, -1);
    for (const std::int32_t l : dirty_links_) grew |= add_link_flows(l, -1);
    for (const FlowId f : changed_)
      for (const std::int32_t l : route_[f]->links)
        if (saturated(l)) grew |= add_link_flows(l, -1);
    if (!grew) break;
  }
  set_.clear();
  mlinks_.clear();
}

void FlowEngine::unlink(FlowId f) {
  const auto& ls = route_[f]->links;
  for (std::size_t i = 0; i < ls.size(); ++i) {
    const std::int32_t l = ls[i];
    auto& lst = link_flows_[l];
    const auto p = static_cast<std::size_t>(link_pos_[f][i]);
    HPCCSIM_ASSERT(p < lst.size() && lst[p].flow == f);
    const LinkEntry moved = lst.back();
    lst.pop_back();
    if (p < lst.size()) {
      lst[p] = moved;
      link_pos_[moved.flow][moved.hop] = static_cast<std::int32_t>(p);
    }
    rate_sum_[l] -= rate_[f];
    if (lst.empty()) rate_sum_[l] = 0.0;  // shed accumulated fp drift
  }
}

void FlowEngine::process(std::uint64_t until_ps,
                         const CompletionFn& on_complete) {
  while (!heap_.empty() && heap_.front().when <= until_ps) {
    const FlowId f = heap_.front().flow;
    const std::uint64_t when = heap_.front().when;
    heap_pop();
    HPCCSIM_ASSERT(when >= now_ps_);
    now_ps_ = when;
    sync_remaining(f);
    if (remaining_[f] > kEpsBytes) {
      schedule(f);  // picosecond rounding left a sliver; finish it
      continue;
    }

    const Completion c{f,
                       src_[f],
                       dst_[f],
                       bytes_[f],
                       sim::Time::ps(start_ps_[f]),
                       sim::Time::ps(when),
                       route_[f]->bottleneck_bps,
                       tag_[f]};
    bump_epoch();
    // Seed the ripple with everyone sharing a constraining link with
    // the departing flow, then take the flow out of the network.
    for (const std::int32_t l : route_[f]->links)
      if (saturated(l)) add_link_flows(l, f);
    unlink(f);
    route_[f] = nullptr;
    free_.push_back(f);
    --active_count_;
    ++stats_.completed;
    recompute();
    if (on_complete) on_complete(c);
  }
}

void FlowEngine::run_until(sim::Time t, const CompletionFn& on_complete) {
  process(t.picoseconds(), on_complete);
  now_ps_ = std::max(now_ps_, t.picoseconds());
}

void FlowEngine::run_to_completion(const CompletionFn& on_complete) {
  process(std::numeric_limits<std::uint64_t>::max(), on_complete);
  HPCCSIM_ENSURES(active_count_ == 0);
  HPCCSIM_ENSURES(heap_.empty());
  for (const auto& lst : link_flows_) HPCCSIM_ENSURES(lst.empty());
}

}  // namespace hpccsim::wan
