// Parallel scheduler for FlitNetwork::run(): spatially partitioned
// routers under conservative lookahead, byte-identical to the
// sequential fast path at any thread count (docs/MODEL.md §11).
//
// Layout. The mesh is split into B = min(2*threads, height) bands of
// contiguous rows; ids are row-major, so each band is a contiguous id
// range, E/W links never leave a band, and every cross-band link is a
// N/S link on one of the B-1 band boundaries. Worker g owns the band
// pair (2g, 2g+1); the caller's thread runs group 0.
//
// Schedule. The sequential walk steps routers in id order, so during
// cycle c a router sees post-pop buffer occupancy at lower-id
// neighbours and cycle-boundary occupancy at higher-id neighbours.
// That asymmetry fixes the legal lookahead exactly: a band may run
// cycle c only when
//
//     progress[band-1] >= c      (upper neighbour finished cycle c)
//     progress[band+1] >= c-1    (lower neighbour finished cycle c-1)
//
// which an odd-even band pairing turns into a pipeline: each thread
// alternates its two bands, and the two wait conditions guarantee
// adjacent bands never execute concurrently. All cross-band state can
// therefore be plain (non-atomic) fields, with happens-before supplied
// by the ProgressCounter publish/await pairs (core/barrier.hpp).
//
// Boundary traffic. A flit crossing a band boundary is staged in a
// per-directed-edge SPSC ring as a (cycle, flit) entry; the owning
// band applies entries for cycle c-1 at the start of its cycle c —
// the same instant the sequential phase 3 of cycle c-1 would have
// made them visible. Downstream occupancy across a boundary is read
// from a per-edge credit mirror, occ = sent - consumed: the feeder
// bumps `sent` when it stages, the owner bumps `consumed` when it
// pops, and the two wait conditions above make the mirror equal the
// exact post-pop / cycle-boundary value the sequential walk reads.
//
// Each burst runs a window of cycles between global reductions; the
// window size does not affect results, only fork-join amortization.
// Message-visible results (delivered cycles, link/injected/ejected
// totals, final cycle) are byte-identical to the sequential path;
// schedule diagnostics (visits, skip/ffwd, shard counters) are
// deterministic per thread count only.
#include <algorithm>
#include <bit>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#include "core/barrier.hpp"
#include "mesh/flit.hpp"

namespace hpccsim::mesh {

namespace {
int opposite(int dir) { return dir ^ 1; }
constexpr std::int64_t kPoison = std::numeric_limits<std::int64_t>::max();
}  // namespace

struct FlitNetwork::ParCtx {
  struct Entry {
    std::int64_t cycle = 0;
    Flit flit;
  };

  // One directed cross-band link. `sent`/`wr`/`ring` are written by the
  // feeder band, `consumed`/`rd` by the owner band; the pipeline
  // schedule keeps the two bands from ever executing concurrently, so
  // plain fields suffice.
  struct Edge {
    static constexpr std::int64_t kRing = 8;
    std::int32_t port = -1;  // owner-side input port (flat pidx)
    std::int64_t sent = 0;
    std::int64_t wr = 0;
    std::int64_t consumed = 0;
    std::int64_t rd = 0;
    Entry ring[kRing];
  };

  struct alignas(64) Shard {
    int band = 0;
    NodeId lo = 0, hi = 0;  // router id range [lo, hi)
    // Local bitmaps (bit j = router lo + j): rows are not 64-aligned,
    // so band-private words avoid cross-band read-modify-write races
    // the global bitmaps would have.
    std::vector<std::uint64_t> active;
    std::vector<std::uint64_t> inject;
    std::vector<Staged> staged;         // in-band arrivals this cycle
    std::vector<std::int32_t> inbound;  // edges this shard consumes
    ProgressCounter progress;           // last completed cycle
    // Burst-local deltas, reduced by the coordinator after join.
    std::uint64_t link = 0, injected = 0, ejected = 0, visits = 0;
    std::uint64_t boundary = 0, waits = 0;
    std::int64_t in_flight_delta = 0, undeliv_delta = 0;
    std::uint64_t last_tail = 0;  // cycle_+1 of the latest tail ejection
  };

  FlitNetwork* net = nullptr;
  int bands = 0;
  int groups = 0;
  std::vector<Shard> shards;
  std::vector<Edge> edges;
  std::vector<std::int32_t> port_edge;  // n*5; -1 = in-band port
  std::int64_t begin = 0, limit = 0;    // current burst [begin, limit)
  std::vector<std::exception_ptr> errors;  // one slot per group
  BurstGate gate;
  bool exit_pool = false;  // read by workers after gate acquire
  std::vector<std::thread> workers;

  ~ParCtx() {
    exit_pool = true;
    gate.issue();
    for (auto& t : workers) t.join();
  }

  static void set_local(std::vector<std::uint64_t>& bm, std::int32_t j) {
    bm[static_cast<std::size_t>(j >> 6)] |= std::uint64_t{1} << (j & 63);
  }
  static void clear_local(std::vector<std::uint64_t>& bm, std::int32_t j) {
    bm[static_cast<std::size_t>(j >> 6)] &= ~(std::uint64_t{1} << (j & 63));
  }

  // Downstream occupancy of input port `dp` as the sequential walk
  // would read it: the credit mirror for cross-band ports, buffered +
  // staged for in-band ports.
  std::int32_t occ(std::int32_t dp) const {
    const std::int32_t e = port_edge[static_cast<std::size_t>(dp)];
    if (e >= 0) {
      const Edge& ed = edges[static_cast<std::size_t>(e)];
      return static_cast<std::int32_t>(ed.sent - ed.consumed);
    }
    return static_cast<std::int32_t>(
               net->q_size_[static_cast<std::size_t>(dp)]) +
           net->staged_count_[static_cast<std::size_t>(dp)];
  }

  void pop(Shard& s, std::int32_t p, NodeId node) {
    auto& head = net->q_head_[static_cast<std::size_t>(p)];
    head = static_cast<std::uint16_t>(head + 1 == net->cap_ ? 0 : head + 1);
    --net->q_size_[static_cast<std::size_t>(p)];
    if (--net->router_flits_[static_cast<std::size_t>(node)] == 0)
      clear_local(s.active, node - s.lo);
    const std::int32_t e = port_edge[static_cast<std::size_t>(p)];
    if (e >= 0) ++edges[static_cast<std::size_t>(e)].consumed;
  }

  void push_fifo(std::int32_t p, NodeId node, const Flit& f, Shard& s) {
    auto head = net->q_head_[static_cast<std::size_t>(p)];
    auto& size = net->q_size_[static_cast<std::size_t>(p)];
    HPCCSIM_ASSERT(static_cast<std::int32_t>(size) < net->cap_);
    std::int32_t slot = head + size;
    if (slot >= net->cap_) slot -= net->cap_;
    net->buf_[static_cast<std::size_t>(p * net->cap_ + slot)] = f;
    ++size;
    if (net->router_flits_[static_cast<std::size_t>(node)]++ == 0)
      set_local(s.active, node - s.lo);
  }

  void stage_to(Shard& s, NodeId node, int port, const Flit& f,
                std::int64_t c) {
    const std::int32_t dp = net->pidx(node, port);
    const std::int32_t e = port_edge[static_cast<std::size_t>(dp)];
    if (e >= 0) {
      Edge& ed = edges[static_cast<std::size_t>(e)];
      HPCCSIM_ASSERT(ed.wr - ed.rd < Edge::kRing);
      ed.ring[ed.wr & (Edge::kRing - 1)] = Entry{c, f};
      ++ed.wr;
      ++ed.sent;
      ++s.boundary;
    } else {
      s.staged.push_back(Staged{node, port, f});
      ++net->staged_count_[static_cast<std::size_t>(dp)];
    }
  }

  // Make cross-band arrivals staged during cycle `apply_c` visible —
  // the parallel equivalent of sequential phase 3 of that cycle for
  // boundary links.
  void apply_inbound(Shard& s, std::int64_t apply_c) {
    for (const std::int32_t ei : s.inbound) {
      Edge& ed = edges[static_cast<std::size_t>(ei)];
      while (ed.rd < ed.wr) {
        const Entry& en = ed.ring[ed.rd & (Edge::kRing - 1)];
        HPCCSIM_ASSERT(en.cycle >= apply_c);
        if (en.cycle > apply_c) break;
        push_fifo(ed.port, ed.port / kPorts, en.flit, s);
        ++ed.rd;
      }
    }
  }

  // Phase 1 for one band: identical walk to FlitNetwork::phase1_inject
  // over the band-local inject bitmap.
  void phase1(Shard& s, std::int64_t c) {
    for (std::size_t wi = 0; wi < s.inject.size(); ++wi) {
      std::uint64_t w = s.inject[wi];
      while (w) {
        const NodeId n = s.lo + static_cast<NodeId>((wi << 6) +
                                                    std::countr_zero(w));
        w &= w - 1;
        auto& st = net->inject_[static_cast<std::size_t>(n)];
        const std::int32_t m = st.head;
        if (net->messages_[static_cast<std::size_t>(m)].inject_cycle >
            static_cast<std::uint64_t>(c))
          continue;
        if (occ(net->pidx(n, kLocal)) >= net->cap_) continue;
        const std::int64_t total = net->flits_of(m);
        Flit f;
        f.msg = m;
        f.dst = net->messages_[static_cast<std::size_t>(m)].dst;
        f.head = st.flits_sent == 0;
        f.tail = st.flits_sent == total - 1;
        stage_to(s, n, kLocal, f, c);
        ++s.in_flight_delta;
        ++s.injected;
        if (++st.flits_sent == total) {
          net->pop_pending(st);
          st.flits_sent = 0;
          if (st.head < 0) clear_local(s.inject, n - s.lo);
        }
      }
    }
  }

  // Phase 2 for one router: identical to FlitNetwork::phase2_router
  // except cross-band occupancy comes from the edge mirror, staging
  // routes through stage_to, and counters land in the shard.
  void phase2_router(Shard& s, NodeId n, std::int64_t c) {
    const std::int32_t base = net->pidx(n, 0);

    for (int ip = 0; ip < kPorts; ++ip) {
      const std::int32_t p = base + ip;
      if (net->q_size_[static_cast<std::size_t>(p)] == 0) continue;
      const Flit& front = net->fifo_front(p);
      if (!front.head) continue;
      bool granted = false;
      for (int op = 0; op < kPorts; ++op)
        granted =
            granted || net->owner_[static_cast<std::size_t>(base + op)] == ip;
      if (granted) continue;
      int cands[3];
      int nc = 0;
      net->route_candidates(n, front.dst, cands, nc);
      int best = -1;
      std::int32_t best_space = -1;
      for (int k = 0; k < nc; ++k) {
        const int op = cands[k];
        if (net->owner_[static_cast<std::size_t>(base + op)] >= 0) continue;
        std::int32_t space;
        if (op == kLocal) {
          space = std::numeric_limits<std::int32_t>::max();
        } else {
          const NodeId next = net->nbr_[static_cast<std::size_t>(n) * 4 +
                                        static_cast<std::size_t>(op)];
          space = net->cap_ - occ(net->pidx(next, opposite(op)));
        }
        if (space > best_space) {
          best_space = space;
          best = op;
        }
      }
      if (best >= 0)
        net->owner_[static_cast<std::size_t>(base + best)] =
            static_cast<std::int8_t>(ip);
    }

    for (int op = 0; op < kPorts; ++op) {
      const std::int8_t own = net->owner_[static_cast<std::size_t>(base + op)];
      if (own < 0) continue;
      const std::int32_t p = base + own;
      if (net->q_size_[static_cast<std::size_t>(p)] == 0) continue;
      const Flit f = net->fifo_front(p);

      if (op == kLocal) {
        pop(s, p, n);
        --s.in_flight_delta;
        ++s.ejected;
        if (f.tail) {
          auto& msg = net->messages_[static_cast<std::size_t>(f.msg)];
          HPCCSIM_ASSERT(!msg.delivered);
          msg.delivered_cycle =
              static_cast<std::uint64_t>(c) + 1 +
              static_cast<std::uint64_t>(net->params_.pipeline_cycles) *
                  static_cast<std::uint64_t>(
                      net->mesh_.distance(msg.src, msg.dst));
          msg.delivered = true;
          --s.undeliv_delta;
          s.last_tail = static_cast<std::uint64_t>(c) + 1;
          net->owner_[static_cast<std::size_t>(base + op)] = -1;
        }
      } else {
        const NodeId next = net->nbr_[static_cast<std::size_t>(n) * 4 +
                                      static_cast<std::size_t>(op)];
        HPCCSIM_ASSERT(next >= 0);
        const int nip = opposite(op);
        if (occ(net->pidx(next, nip)) >= net->cap_) continue;  // credit stall
        pop(s, p, n);
        stage_to(s, next, nip, f, c);
        ++s.link;
        if (f.tail) net->owner_[static_cast<std::size_t>(base + op)] = -1;
      }
    }
  }

  // Active-set router walk over one band (same dense/sparse split as
  // step_impl, scaled to the band).
  void phase2_sweep(Shard& s, std::int64_t c) {
    std::int64_t cnt = 0;
    for (const std::uint64_t w : s.active) cnt += std::popcount(w);
    s.visits += static_cast<std::uint64_t>(cnt);
    if (cnt * 2 >= static_cast<std::int64_t>(s.hi - s.lo)) {
      for (NodeId n = s.lo; n < s.hi; ++n)
        if (net->router_flits_[static_cast<std::size_t>(n)] > 0)
          phase2_router(s, n, c);
    } else {
      for (std::size_t wi = 0; wi < s.active.size(); ++wi) {
        std::uint64_t w = s.active[wi];
        while (w) {
          const NodeId n = s.lo + static_cast<NodeId>((wi << 6) +
                                                      std::countr_zero(w));
          w &= w - 1;
          phase2_router(s, n, c);
        }
      }
    }
  }

  void phase3(Shard& s) {
    for (const Staged& st : s.staged) {
      const std::int32_t p = net->pidx(st.node, st.port);
      push_fifo(p, st.node, st.flit, s);
      net->staged_count_[static_cast<std::size_t>(p)] = 0;
    }
    s.staged.clear();
  }

  void band_cycle(Shard& s, std::int64_t c) {
    apply_inbound(s, c - 1);
    phase1(s, c);
    phase2_sweep(s, c);
    phase3(s);
  }

  // One group's share of a burst: pipeline its band pair through
  // [begin, limit) under the two wait conditions, then drain the
  // last cycle's boundary arrivals.
  void group_loop(int g) {
    Shard& s0 = shards[static_cast<std::size_t>(2 * g)];
    Shard* s1 = (2 * g + 1 < bands)
                    ? &shards[static_cast<std::size_t>(2 * g + 1)]
                    : nullptr;
    for (std::int64_t c = begin; c < limit; ++c) {
      // s0 cycle c needs prog[s0-1] >= c; prog[s0+1] >= c-1 holds
      // because this thread ran s1's cycle c-1 last iteration.
      if (s0.band > 0)
        s0.waits += static_cast<std::uint64_t>(
            shards[static_cast<std::size_t>(s0.band - 1)].progress.await(c));
      band_cycle(s0, c);
      s0.progress.publish(c);
      if (s1) {
        // s1 cycle c needs prog[s1+1] >= c-1; prog[s1-1] >= c was just
        // published above.
        if (s1->band + 1 < bands)
          s1->waits += static_cast<std::uint64_t>(
              shards[static_cast<std::size_t>(s1->band + 1)].progress.await(
                  c - 1));
        band_cycle(*s1, c);
        s1->progress.publish(c);
      }
    }
    // Drain: s0's feeders (band s0-1, awaited to limit-1 above; s1,
    // same thread) are done. s1's lower feeder still needs a wait.
    if (s1 && s1->band + 1 < bands)
      s1->waits += static_cast<std::uint64_t>(
          shards[static_cast<std::size_t>(s1->band + 1)].progress.await(limit -
                                                                        1));
    apply_inbound(s0, limit - 1);
    if (s1) apply_inbound(*s1, limit - 1);
  }

  // Exception containment: record, then poison this group's progress
  // so neighbours' (bounded) waits can't deadlock; the coordinator
  // rethrows after join and discards the burst.
  void run_group(int g) {
    try {
      group_loop(g);
    } catch (...) {
      errors[static_cast<std::size_t>(g)] = std::current_exception();
      shards[static_cast<std::size_t>(2 * g)].progress.publish(kPoison);
      if (2 * g + 1 < bands)
        shards[static_cast<std::size_t>(2 * g + 1)].progress.publish(kPoison);
    }
  }

  void run_burst(std::int64_t burst_limit) {
    net->cal_valid_ = false;  // shards move fronts without the calendar
    begin = static_cast<std::int64_t>(net->cycle_);
    limit = burst_limit;
    for (Shard& s : shards) {
      std::fill(s.active.begin(), s.active.end(), 0);
      std::fill(s.inject.begin(), s.inject.end(), 0);
      for (NodeId n = s.lo; n < s.hi; ++n) {
        if (net->router_flits_[static_cast<std::size_t>(n)] > 0)
          set_local(s.active, n - s.lo);
        if (net->inject_[static_cast<std::size_t>(n)].head >= 0)
          set_local(s.inject, n - s.lo);
      }
      s.staged.clear();
      s.link = s.injected = s.ejected = s.visits = 0;
      s.boundary = s.waits = 0;
      s.in_flight_delta = s.undeliv_delta = 0;
      s.last_tail = 0;
      s.progress.reset(begin - 1);
    }
    for (Edge& ed : edges) {
      ed.sent = net->q_size_[static_cast<std::size_t>(ed.port)];
      ed.consumed = 0;
      ed.wr = ed.rd = 0;
    }
    std::fill(errors.begin(), errors.end(), nullptr);

    gate.issue();
    run_group(0);
    gate.join(groups - 1);

    for (int g = 0; g < groups; ++g)
      if (errors[static_cast<std::size_t>(g)])
        std::rethrow_exception(errors[static_cast<std::size_t>(g)]);

    std::uint64_t last_tail = 0;
    for (Shard& s : shards) {
      net->link_flits_ += s.link;
      net->injected_flits_ += s.injected;
      net->ejected_flits_ += s.ejected;
      net->router_visits_ += s.visits;
      net->boundary_flits_ += s.boundary;
      net->barrier_waits_ += s.waits;
      net->in_flight_flits_ += s.in_flight_delta;
      net->undelivered_ += s.undeliv_delta;
      last_tail = std::max(last_tail, s.last_tail);
    }
    ++net->windows_;
    if (net->undelivered_ == 0) {
      // Cycles after the last tail ejection are provable no-ops
      // (network empty, nothing pending), so land the clock exactly
      // where the sequential loop would have stopped.
      HPCCSIM_ASSERT(net->in_flight_flits_ == 0);
      HPCCSIM_ASSERT(last_tail > static_cast<std::uint64_t>(begin));
      net->cycle_ = last_tail;
    } else {
      net->cycle_ = static_cast<std::uint64_t>(limit);
    }
    // Restore the canonical global bitmaps for any subsequent
    // sequential stepping (or the next burst's shard init).
    std::fill(net->active_.begin(), net->active_.end(), 0);
    std::fill(net->inject_mask_.begin(), net->inject_mask_.end(), 0);
    for (NodeId n = 0; n < net->n_; ++n) {
      if (net->router_flits_[static_cast<std::size_t>(n)] > 0)
        net->set_bit(net->active_, n);
      if (net->inject_[static_cast<std::size_t>(n)].head >= 0)
        net->set_bit(net->inject_mask_, n);
    }
    net->rebuild_calendar();
  }
};

void FlitNetwork::ParCtxDeleter::operator()(ParCtx* p) const { delete p; }

FlitNetwork::~FlitNetwork() = default;

bool FlitNetwork::par_eligible() const {
  // Small meshes cannot amortize even one handoff boundary; run them
  // sequentially (results are identical either way).
  return threads_ > 1 && mesh_.height() >= 4 && n_ >= 64;
}

void FlitNetwork::ensure_par_ctx() {
  if (par_) return;
  par_.reset(new ParCtx);
  ParCtx& ctx = *par_;
  ctx.net = this;
  const std::int32_t width = mesh_.width();
  const std::int32_t height = mesh_.height();
  const int nbands = static_cast<int>(
      std::min<std::int32_t>(2 * threads_, height));
  ctx.bands = nbands;
  ctx.groups = (nbands + 1) / 2;
  ctx.shards = std::vector<ParCtx::Shard>(static_cast<std::size_t>(nbands));
  ctx.port_edge.assign(static_cast<std::size_t>(n_) * kPorts, -1);
  ctx.errors.resize(static_cast<std::size_t>(ctx.groups));

  const auto row_lo = [&](int b) {
    return static_cast<std::int32_t>(
        (static_cast<std::int64_t>(b) * height) / nbands);
  };
  // Boundary above band b (b >= 1) at row r = row_lo(b): W "down"
  // edges into band b's North inputs, then W "up" edges into band
  // b-1's South inputs.
  for (int b = 1; b < nbands; ++b) {
    const std::int32_t r = row_lo(b);
    for (std::int32_t x = 0; x < width; ++x) {
      ParCtx::Edge down;
      down.port = pidx(r * width + x, static_cast<int>(Dir::North));
      ctx.port_edge[static_cast<std::size_t>(down.port)] =
          static_cast<std::int32_t>(ctx.edges.size());
      ctx.edges.push_back(down);
    }
    for (std::int32_t x = 0; x < width; ++x) {
      ParCtx::Edge up;
      up.port = pidx((r - 1) * width + x, static_cast<int>(Dir::South));
      ctx.port_edge[static_cast<std::size_t>(up.port)] =
          static_cast<std::int32_t>(ctx.edges.size());
      ctx.edges.push_back(up);
    }
  }
  const std::int32_t per_boundary = 2 * width;
  for (int b = 0; b < nbands; ++b) {
    ParCtx::Shard& s = ctx.shards[static_cast<std::size_t>(b)];
    s.band = b;
    s.lo = row_lo(b) * width;
    s.hi = row_lo(b + 1) * width;
    const std::size_t words =
        static_cast<std::size_t>((s.hi - s.lo + 63) / 64);
    s.active.assign(words, 0);
    s.inject.assign(words, 0);
    if (b > 0) {  // down edges of the boundary above
      const std::int32_t base = (b - 1) * per_boundary;
      for (std::int32_t x = 0; x < width; ++x) s.inbound.push_back(base + x);
    }
    if (b + 1 < nbands) {  // up edges of the boundary below
      const std::int32_t base = b * per_boundary + width;
      for (std::int32_t x = 0; x < width; ++x) s.inbound.push_back(base + x);
    }
  }

  for (int g = 1; g < ctx.groups; ++g) {
    ctx.workers.emplace_back([&ctx, g] {
      std::uint64_t seen = 0;
      for (;;) {
        seen = ctx.gate.await_command(seen);
        if (ctx.exit_pool) return;
        ctx.run_group(g);
        ctx.gate.complete();
      }
    });
  }
}

void FlitNetwork::run_parallel(std::uint64_t max_cycles) {
  ensure_par_ctx();
  while (undelivered_ > 0) {
    if (cycle_ >= max_cycles) throw_max_cycles(max_cycles);
    if (in_flight_flits_ == 0 && try_empty_advance(max_cycles)) continue;
    par_->run_burst(static_cast<std::int64_t>(
        std::min(cycle_ + window_cycles_, max_cycles)));
  }
}

}  // namespace hpccsim::mesh
