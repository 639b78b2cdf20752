#include "mesh/flit.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace hpccsim::mesh {

namespace {
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

// A flit leaving east arrives on the neighbour's west input, etc.; the
// Dir encoding pairs opposites as (E=0,W=1) and (N=2,S=3), so the
// downstream input port is the output direction with its low bit
// flipped.
int opposite(int dir) { return dir ^ 1; }
}  // namespace

FlitNetwork::FlitNetwork(Mesh2D mesh, FlitParams params)
    : mesh_(mesh), params_(params) {
  HPCCSIM_EXPECTS(params.flit_bytes > 0);
  HPCCSIM_EXPECTS(params.input_buffer_flits >= 2);
  HPCCSIM_EXPECTS(params.input_buffer_flits <= 4096);
  n_ = mesh_.node_count();
  cap_ = params.input_buffer_flits;
  const auto nports = static_cast<std::size_t>(n_) * kPorts;
  buf_.resize(nports * static_cast<std::size_t>(cap_));
  q_head_.assign(nports, 0);
  q_size_.assign(nports, 0);
  owner_.assign(nports, -1);
  staged_count_.assign(nports, 0);
  router_flits_.assign(static_cast<std::size_t>(n_), 0);
  active_.assign(static_cast<std::size_t>((n_ + 63) / 64), 0);
  inject_mask_.assign(active_.size(), 0);
  ready_.assign(active_.size(), 0);
  cal_.reserve(static_cast<std::size_t>(n_));
  inject_.resize(static_cast<std::size_t>(n_));
  nbr_.resize(static_cast<std::size_t>(n_) * 4);
  cx_.resize(static_cast<std::size_t>(n_));
  cy_.resize(static_cast<std::size_t>(n_));
  for (NodeId n = 0; n < n_; ++n) {
    for (const Dir d : kAllDirs)
      nbr_[static_cast<std::size_t>(n) * 4 + static_cast<std::size_t>(d)] =
          mesh_.neighbour(n, d);
    const Coord c = mesh_.coord_of(n);
    cx_[static_cast<std::size_t>(n)] = static_cast<std::int16_t>(c.x);
    cy_[static_cast<std::size_t>(n)] = static_cast<std::int16_t>(c.y);
  }
}

std::size_t FlitNetwork::inject(NodeId src, NodeId dst, Bytes bytes,
                                std::uint64_t inject_cycle) {
  HPCCSIM_EXPECTS(src >= 0 && src < n_);
  HPCCSIM_EXPECTS(dst >= 0 && dst < n_);
  HPCCSIM_EXPECTS(src != dst);
  HPCCSIM_EXPECTS(bytes > 0);
  const auto m = static_cast<std::int32_t>(messages_.size());
  messages_.push_back(FlitMessage{src, dst, bytes, inject_cycle, 0, false});
  next_msg_.push_back(-1);
  auto& st = inject_[static_cast<std::size_t>(src)];
  if (st.head < 0) {
    // A new front: the source enters the calendar. A queued source keeps
    // its front, so its calendar entry stands.
    st.head = m;
    set_bit(inject_mask_, src);
    if (cal_valid_) cal_push(src);
  } else {
    next_msg_[static_cast<std::size_t>(st.tail)] = m;
  }
  st.tail = m;
  ++undelivered_;
  return static_cast<std::size_t>(m);
}

void FlitNetwork::cal_push(NodeId n) {
  const std::int32_t m = inject_[static_cast<std::size_t>(n)].head;
  cal_.push_back(
      CalEntry{messages_[static_cast<std::size_t>(m)].inject_cycle, n});
  std::push_heap(cal_.begin(), cal_.end(), CalLater{});
}

// Every pending source goes into the heap, none into ready_: phase 1
// moves the due ones over before it walks, and inject_horizon() may
// assume an empty ready set on an empty network (see there).
void FlitNetwork::rebuild_calendar() {
  std::fill(ready_.begin(), ready_.end(), 0);
  ready_count_ = 0;
  cal_.clear();
  for (NodeId n = 0; n < n_; ++n) {
    const std::int32_t m = inject_[static_cast<std::size_t>(n)].head;
    if (m >= 0)
      cal_.push_back(
          CalEntry{messages_[static_cast<std::size_t>(m)].inject_cycle, n});
  }
  std::make_heap(cal_.begin(), cal_.end(), CalLater{});
  cal_valid_ = true;
}

std::int64_t FlitNetwork::flits_of(std::int32_t msg) const {
  const Bytes b = messages_[static_cast<std::size_t>(msg)].bytes;
  return static_cast<std::int64_t>((b + params_.flit_bytes - 1) /
                                   params_.flit_bytes);
}

const char* route_algo_name(RouteAlgo a) {
  switch (a) {
    case RouteAlgo::XY: return "xy";
    case RouteAlgo::WestFirst: return "west-first";
  }
  return "?";
}

void FlitNetwork::route_candidates(NodeId node, NodeId dst, int out[3],
                                   int& count) const {
  count = 0;
  if (node == dst) {
    out[count++] = kLocal;
    return;
  }
  const std::int32_t cx = cx_[static_cast<std::size_t>(node)];
  const std::int32_t cy = cy_[static_cast<std::size_t>(node)];
  const std::int32_t tx = cx_[static_cast<std::size_t>(dst)];
  const std::int32_t ty = cy_[static_cast<std::size_t>(dst)];
  if (params_.routing == RouteAlgo::XY) {
    if (cx != tx)
      out[count++] = static_cast<int>(cx < tx ? Dir::East : Dir::West);
    else
      out[count++] = static_cast<int>(cy < ty ? Dir::South : Dir::North);
    return;
  }
  // West-first: every west hop precedes any other turn (deadlock-free
  // per the turn model); once dx >= 0, adapt among the productive
  // directions.
  if (cx > tx) {
    out[count++] = static_cast<int>(Dir::West);
    return;
  }
  if (cx < tx) out[count++] = static_cast<int>(Dir::East);
  if (cy < ty) out[count++] = static_cast<int>(Dir::South);
  else if (cy > ty) out[count++] = static_cast<int>(Dir::North);
  HPCCSIM_ASSERT(count >= 1);
}

void FlitNetwork::fifo_pop(std::int32_t p, NodeId node) {
  auto& head = q_head_[static_cast<std::size_t>(p)];
  head = static_cast<std::uint16_t>(head + 1 == cap_ ? 0 : head + 1);
  --q_size_[static_cast<std::size_t>(p)];
  if (--router_flits_[static_cast<std::size_t>(node)] == 0)
    clear_bit(active_, node);
}

void FlitNetwork::stage(NodeId node, int port, const Flit& f) {
  staged_.push_back(Staged{node, port, f});
  ++staged_count_[static_cast<std::size_t>(pidx(node, port))];
}

bool FlitNetwork::inject_flit(NodeId n, InjectState& st) {
  const std::int32_t m = st.head;
  const std::int64_t total = flits_of(m);
  Flit f;
  f.msg = m;
  f.dst = messages_[static_cast<std::size_t>(m)].dst;
  f.head = st.flits_sent == 0;
  f.tail = st.flits_sent == total - 1;
  stage(n, kLocal, f);
  ++in_flight_flits_;
  ++injected_flits_;
  if (++st.flits_sent < total) return false;
  st.flits_sent = 0;
  pop_pending(st);
  if (st.head < 0) clear_bit(inject_mask_, n);
  return true;
}

// Phase 1: injection — one flit per node per cycle into the local input
// port, in node-id order over the sources whose front message is due.
// The calendar's due heap entries move to ready_ first, so ready_ is
// exactly that set; a source leaves it when its next front is not due.
void FlitNetwork::phase1_inject(bool& moved) {
  while (!cal_.empty() && cal_.front().cycle <= cycle_) {
    set_bit(ready_, cal_.front().node);
    ++ready_count_;
    std::pop_heap(cal_.begin(), cal_.end(), CalLater{});
    cal_.pop_back();
  }
  if (ready_count_ == 0) return;
  for (std::size_t wi = 0; wi < ready_.size(); ++wi) {
    std::uint64_t w = ready_[wi];
    while (w) {
      const NodeId n =
          static_cast<NodeId>((wi << 6) + std::countr_zero(w));
      w &= w - 1;
      if (!has_space(pidx(n, kLocal))) continue;
      auto& st = inject_[static_cast<std::size_t>(n)];
      moved = true;
      if (!inject_flit(n, st)) continue;
      if (st.head >= 0 &&
          messages_[static_cast<std::size_t>(st.head)].inject_cycle <= cycle_)
        continue;
      clear_bit(ready_, n);
      --ready_count_;
      if (st.head >= 0) cal_push(n);
    }
  }
}

// Reference phase 1: the same injections found by scanning every
// pending source each cycle, without the calendar.
void FlitNetwork::phase1_inject_reference(bool& moved) {
  for (std::size_t wi = 0; wi < inject_mask_.size(); ++wi) {
    std::uint64_t w = inject_mask_[wi];
    while (w) {
      const NodeId n =
          static_cast<NodeId>((wi << 6) + std::countr_zero(w));
      w &= w - 1;
      auto& st = inject_[static_cast<std::size_t>(n)];
      if (messages_[static_cast<std::size_t>(st.head)].inject_cycle > cycle_)
        continue;
      if (!has_space(pidx(n, kLocal))) continue;
      inject_flit(n, st);
      moved = true;
    }
  }
}

// Phase 2 for one router: switch allocation, then traversal.
void FlitNetwork::phase2_router(NodeId n, bool& moved) {
  const std::int32_t base = pidx(n, 0);

  // Allocation: each ungranted head flit claims its best free candidate
  // output — for adaptive routing, the one with the most downstream
  // buffer space (ties: route-preference order).
  for (int ip = 0; ip < kPorts; ++ip) {
    const std::int32_t p = base + ip;
    if (q_size_[static_cast<std::size_t>(p)] == 0) continue;
    const Flit& front = fifo_front(p);
    if (!front.head) continue;
    bool granted = false;
    for (int op = 0; op < kPorts; ++op)
      granted = granted || owner_[static_cast<std::size_t>(base + op)] == ip;
    if (granted) continue;
    int cands[3];
    int nc = 0;
    route_candidates(n, front.dst, cands, nc);
    int best = -1;
    std::int32_t best_space = -1;
    for (int k = 0; k < nc; ++k) {
      const int op = cands[k];
      if (owner_[static_cast<std::size_t>(base + op)] >= 0) continue;
      std::int32_t space;
      if (op == kLocal) {
        space = std::numeric_limits<std::int32_t>::max();
      } else {
        const NodeId next = nbr_[static_cast<std::size_t>(n) * 4 +
                                 static_cast<std::size_t>(op)];
        const std::int32_t dp = pidx(next, opposite(op));
        space = cap_ -
                static_cast<std::int32_t>(
                    q_size_[static_cast<std::size_t>(dp)]) -
                staged_count_[static_cast<std::size_t>(dp)];
      }
      if (space > best_space) {
        best_space = space;
        best = op;
      }
    }
    if (best >= 0) owner_[static_cast<std::size_t>(base + best)] =
        static_cast<std::int8_t>(ip);
  }

  // Traversal: one flit per owned output port.
  for (int op = 0; op < kPorts; ++op) {
    const std::int8_t own = owner_[static_cast<std::size_t>(base + op)];
    if (own < 0) continue;
    const std::int32_t p = base + own;
    if (q_size_[static_cast<std::size_t>(p)] == 0) continue;
    const Flit f = fifo_front(p);

    if (op == kLocal) {
      // Ejection: always accepted.
      fifo_pop(p, n);
      --in_flight_flits_;
      ++ejected_flits_;
      moved = true;
      if (f.tail) {
        auto& msg = messages_[static_cast<std::size_t>(f.msg)];
        HPCCSIM_ASSERT(!msg.delivered);
        // Charge router pipeline depth once per hop of the route.
        msg.delivered_cycle =
            cycle_ + 1 +
            static_cast<std::uint64_t>(params_.pipeline_cycles) *
                static_cast<std::uint64_t>(mesh_.distance(msg.src, msg.dst));
        msg.delivered = true;
        --undelivered_;
        owner_[static_cast<std::size_t>(base + op)] = -1;
      }
    } else {
      const NodeId next = nbr_[static_cast<std::size_t>(n) * 4 +
                               static_cast<std::size_t>(op)];
      HPCCSIM_ASSERT(next >= 0);
      const int nip = opposite(op);
      if (!has_space(pidx(next, nip))) continue;  // credit stall
      fifo_pop(p, n);
      stage(next, nip, f);
      ++link_flits_;
      moved = true;
      if (f.tail) owner_[static_cast<std::size_t>(base + op)] = -1;
    }
  }
}

// Phase 3: staged arrivals become visible next cycle. At most one flit
// is staged per (node, port) per cycle — each input port has a unique
// upstream output — so application order cannot reorder a FIFO.
void FlitNetwork::phase3_apply() {
  for (const Staged& s : staged_) {
    const std::int32_t p = pidx(s.node, s.port);
    auto head = q_head_[static_cast<std::size_t>(p)];
    auto& size = q_size_[static_cast<std::size_t>(p)];
    std::int32_t slot = head + size;
    if (slot >= cap_) slot -= cap_;
    buf_[static_cast<std::size_t>(p * cap_ + slot)] = s.flit;
    ++size;
    staged_count_[static_cast<std::size_t>(p)] = 0;
    if (router_flits_[static_cast<std::size_t>(s.node)]++ == 0)
      set_bit(active_, s.node);
  }
  staged_.clear();
}

bool FlitNetwork::step_impl(bool full_scan) {
  bool moved = false;
  if (full_scan) {
    phase1_inject_reference(moved);
    for (NodeId n = 0; n < n_; ++n) phase2_router(n, moved);
  } else {
    phase1_inject(moved);
    // Only routers holding a visible flit can change any state this
    // cycle; both walks below visit exactly those routers in id order,
    // matching the full scan (skipped routers are provable no-ops).
    std::int64_t active_count = 0;
    for (const std::uint64_t w : active_)
      active_count += std::popcount(w);
    router_visits_ += active_count;
    if (active_count * 2 >= static_cast<std::int64_t>(n_)) {
      // Dense regime (saturation): a predictable linear sweep beats
      // the bit-extraction chain.
      for (NodeId n = 0; n < n_; ++n)
        if (router_flits_[static_cast<std::size_t>(n)] > 0)
          phase2_router(n, moved);
    } else {
      // Sparse regime: walk set bits. Bits are only cleared for the
      // router being visited, so snapshotting each word is safe.
      for (std::size_t wi = 0; wi < active_.size(); ++wi) {
        std::uint64_t w = active_[wi];
        while (w) {
          const NodeId n =
              static_cast<NodeId>((wi << 6) + std::countr_zero(w));
          w &= w - 1;
          phase2_router(n, moved);
        }
      }
    }
  }
  phase3_apply();
  ++cycle_;
  return moved;
}

bool FlitNetwork::step() {
  if (!cal_valid_) rebuild_calendar();
  return step_impl(false);
}

bool FlitNetwork::step_reference() {
  cal_valid_ = false;  // moves fronts without the calendar
  return step_impl(true);
}

// Read off the calendar. On an empty network ready_ is empty: a ready
// source either injects in phase 1 (its flit is in flight at the cycle
// boundary) or is blocked by a full local port (which holds >= 1 flit
// after phase 2), and rebuild_calendar() fills only the heap. So the
// heap holds every pending source keyed by its front's inject cycle:
// the root is the minimum, and the smaller of its two children is the
// least key of any other source, which both detects a tie and bounds
// the second injection.
FlitNetwork::InjectHorizon FlitNetwork::inject_horizon() const {
  HPCCSIM_ASSERT(cal_valid_ && ready_count_ == 0);
  InjectHorizon h;
  h.first = kNever;
  h.second = kNever;
  h.node = -1;
  if (cal_.empty()) return h;
  h.first = cal_[0].cycle;
  std::uint64_t others = kNever;
  if (cal_.size() > 1) others = cal_[1].cycle;
  if (cal_.size() > 2) others = std::min(others, cal_[2].cycle);
  if (others == h.first) return h;  // tied across nodes
  h.node = cal_[0].node;
  const std::int32_t next =
      next_msg_[static_cast<std::size_t>(
          inject_[static_cast<std::size_t>(h.node)].head)];
  h.second = next >= 0 ? std::min(others,
                                  messages_[static_cast<std::size_t>(next)]
                                      .inject_cycle)
                       : others;
  return h;
}

void FlitNetwork::throw_max_cycles(std::uint64_t max_cycles) const {
  const bool par = par_eligible();
  throw std::runtime_error(
      "FlitNetwork::run exceeded max_cycles=" + std::to_string(max_cycles) +
      " (cycle=" + std::to_string(cycle_) +
      ", in-flight flits=" + std::to_string(in_flight_flits_) +
      ", undelivered messages=" + std::to_string(undelivered_) +
      ", threads=" + std::to_string(par ? threads_ : 1) +
      ", window=" + std::to_string(par ? window_cycles_ : 1) + ")");
}

void FlitNetwork::set_threads(int threads) {
  HPCCSIM_EXPECTS(threads >= 1);
  HPCCSIM_EXPECTS(threads <= 256);
  if (threads != threads_) {
    threads_ = threads;
    par_.reset();  // shard layout depends on the thread count
  }
}

void FlitNetwork::set_window(std::uint64_t cycles) {
  HPCCSIM_EXPECTS(cycles >= 1);
  window_cycles_ = cycles;
}

// Empty-network shortcut shared by run() and run_parallel(): skip idle
// windows and stream lone worms. Returns true if the fast-forward
// delivered a message (state advanced past the empty point); false if
// the caller must step normally (an injection is due now, or another
// message could contend with the lone worm).
bool FlitNetwork::try_empty_advance(std::uint64_t max_cycles) {
  // The network is empty: the next state change is an injection.
  const InjectHorizon h = inject_horizon();
  HPCCSIM_ASSERT(h.first != kNever);
  if (h.first > cycle_) {
    // Idle-cycle skip: every cycle in [cycle_, h.first) is a
    // provable no-op (empty network, nothing eligible to inject),
    // so jump the clock (docs/MODEL.md §10). Clamp to max_cycles
    // so the overflow throw fires exactly as under stepping.
    const std::uint64_t to = std::min(h.first, max_cycles);
    skipped_cycles_ += to - cycle_;
    cycle_ = to;
    if (cycle_ >= max_cycles) throw_max_cycles(max_cycles);
  }
  if (h.node >= 0) {
    // Wormhole fast-forward: a lone worm on an empty network
    // streams one flit per cycle with no allocation or credit
    // stalls (input buffers hold >= 2 flits), so its tail ejects
    // in cycle start + hops + flits, and the network is empty
    // again one cycle later. Safe only if no other message can
    // start injecting before that point.
    auto& st = inject_[static_cast<std::size_t>(h.node)];
    const std::int32_t m = st.head;
    HPCCSIM_ASSERT(st.flits_sent == 0);
    const auto& msg = messages_[static_cast<std::size_t>(m)];
    const auto hops =
        static_cast<std::uint64_t>(mesh_.distance(msg.src, msg.dst));
    const auto nflits = static_cast<std::uint64_t>(flits_of(m));
    const std::uint64_t done = cycle_ + hops + nflits + 1;
    if (h.second >= done && done <= max_cycles) {
      auto& mm = messages_[static_cast<std::size_t>(m)];
      mm.delivered_cycle =
          done + static_cast<std::uint64_t>(params_.pipeline_cycles) * hops;
      mm.delivered = true;
      --undelivered_;
      injected_flits_ += nflits;
      ejected_flits_ += nflits;
      link_flits_ += nflits * hops;
      ffwd_flits_ += nflits;
      ++ffwd_messages_;
      // h.node is the calendar's root; re-key it by its next front.
      std::pop_heap(cal_.begin(), cal_.end(), CalLater{});
      cal_.pop_back();
      pop_pending(st);
      if (st.head < 0)
        clear_bit(inject_mask_, h.node);
      else
        cal_push(h.node);
      cycle_ = done;
      return true;
    }
  }
  return false;
}

void FlitNetwork::run(std::uint64_t max_cycles) {
  if (!cal_valid_) rebuild_calendar();
  if (par_eligible()) {
    run_parallel(max_cycles);
    return;
  }
  while (undelivered_ > 0) {
    if (cycle_ >= max_cycles) throw_max_cycles(max_cycles);
    if (in_flight_flits_ == 0 && try_empty_advance(max_cycles)) continue;
    step();
  }
}

void FlitNetwork::run_reference(std::uint64_t max_cycles) {
  while (undelivered_ > 0) {
    if (cycle_ >= max_cycles) throw_max_cycles(max_cycles);
    step_reference();
  }
}

void FlitNetwork::dump_counters(obs::Registry& reg) const {
  reg.counter("mesh.link.flits").set(static_cast<std::int64_t>(link_flits_));
  reg.counter("mesh.flit.injected")
      .set(static_cast<std::int64_t>(injected_flits_));
  reg.counter("mesh.flit.ejected")
      .set(static_cast<std::int64_t>(ejected_flits_));
  reg.counter("mesh.flit.cycles").set(static_cast<std::int64_t>(cycle_));
  reg.counter("mesh.flit.cycles_skipped")
      .set(static_cast<std::int64_t>(skipped_cycles_));
  reg.counter("mesh.flit.ffwd_messages")
      .set(static_cast<std::int64_t>(ffwd_messages_));
  reg.counter("mesh.flit.ffwd_flits")
      .set(static_cast<std::int64_t>(ffwd_flits_));
  reg.counter("mesh.flit.router_visits")
      .set(static_cast<std::int64_t>(router_visits_));
  reg.counter("mesh.flit.shard.boundary_flits")
      .set(static_cast<std::int64_t>(boundary_flits_));
  reg.counter("mesh.flit.shard.barrier_waits")
      .set(static_cast<std::int64_t>(barrier_waits_));
  reg.counter("mesh.flit.shard.windows")
      .set(static_cast<std::int64_t>(windows_));
}

sim::Time FlitNetwork::cycle_time() const {
  return sim::Time::sec(static_cast<double>(params_.flit_bytes) /
                        params_.channel_bw.bytes_per_sec());
}

std::uint64_t FlitNetwork::latency_cycles(std::size_t i) const {
  HPCCSIM_EXPECTS(i < messages_.size());
  const auto& m = messages_[i];
  HPCCSIM_EXPECTS(m.delivered);
  return m.delivered_cycle - m.inject_cycle;
}

std::optional<std::uint64_t> FlitNetwork::try_latency_cycles(
    std::size_t i) const {
  HPCCSIM_EXPECTS(i < messages_.size());
  const auto& m = messages_[i];
  if (!m.delivered) return std::nullopt;
  return m.delivered_cycle - m.inject_cycle;
}

}  // namespace hpccsim::mesh
