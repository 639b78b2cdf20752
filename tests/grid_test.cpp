// Tests for the grid data-federation subsystem: topology construction,
// the seeded diurnal workload, replica placement policies, the
// incremental flow engine's bookkeeping, and end-to-end GridSimulator
// invariants (conservation + determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "grid/catalog.hpp"
#include "grid/federation.hpp"
#include "grid/grid_sim.hpp"
#include "grid/workload.hpp"
#include "obs/counters.hpp"
#include "oracles/fluid_reference.hpp"
#include "util/rng.hpp"
#include "wan/flow_engine.hpp"

namespace hpccsim::grid {
namespace {

using sim::Time;

FederationConfig small_config() {
  FederationConfig fc;
  fc.regions = 2;
  fc.leaves_per_region = 3;
  return fc;
}

TEST(Federation, TopologyShape) {
  const Federation fed(small_config());
  EXPECT_EQ(fed.regions(), 2);
  EXPECT_EQ(fed.archives().size(), 2u);
  EXPECT_EQ(fed.leaves().size(), 6u);
  // Sites: per region one hub + one archive + three leaves.
  EXPECT_EQ(fed.wan().site_count(), 2 * (1 + 1 + 3));
  // Every leaf can reach every other site through the backbone.
  const SiteId leaf = fed.leaves().front().site;
  EXPECT_EQ(fed.wan().reachable_from(leaf).size(),
            static_cast<std::size_t>(fed.wan().site_count()));
}

TEST(Federation, SiteMetadata) {
  const Federation fed(small_config());
  for (const GridSite& a : fed.archives()) {
    EXPECT_TRUE(a.is_archive);
    ASSERT_NE(fed.site_info(a.site), nullptr);
    // Archives sit on HIPPI access and are effectively unbounded.
    EXPECT_NEAR(a.access_bps, 1e8, 1e7);
    EXPECT_GT(a.storage_capacity, Bytes{1} << 40);
  }
  std::int32_t t1 = 0, t3 = 0;
  for (const GridSite& l : fed.leaves()) {
    EXPECT_FALSE(l.is_archive);
    EXPECT_EQ(l.storage_capacity, small_config().leaf_storage);
    if (l.access_bps < 1e6) ++t1; else ++t3;
  }
  // Every third leaf rides a T1; the rest get T3 access.
  EXPECT_EQ(t1, 2);
  EXPECT_EQ(t3, 4);
  // Backbone hubs carry no grid metadata.
  bool saw_hub = false;
  for (SiteId s = 0; s < fed.wan().site_count(); ++s)
    if (fed.site_info(s) == nullptr) saw_hub = true;
  EXPECT_TRUE(saw_hub);
}

TEST(Federation, ArchiveOfRegion) {
  const Federation fed(small_config());
  for (std::int32_t r = 0; r < fed.regions(); ++r) {
    const GridSite* info = fed.site_info(fed.archive_of(r));
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->is_archive);
    EXPECT_EQ(info->region, r);
  }
}

WorkloadConfig small_workload() {
  WorkloadConfig wc;
  wc.days = 0.02;
  wc.requests_per_day = 50000.0;
  wc.dataset_count = 200;
  return wc;
}

TEST(Workload, SameSeedSameStream) {
  const Federation fed(small_config());
  WorkloadGenerator a(small_workload(), fed);
  WorkloadGenerator b(small_workload(), fed);
  int n = 0;
  while (true) {
    const auto qa = a.next();
    const auto qb = b.next();
    ASSERT_EQ(qa.has_value(), qb.has_value());
    if (!qa) break;
    EXPECT_EQ(qa->at, qb->at);
    EXPECT_EQ(qa->dst, qb->dst);
    EXPECT_EQ(qa->dataset, qb->dataset);
    ++n;
  }
  EXPECT_GT(n, 100);  // the stream actually produced requests
  // Same config for the static draws too.
  for (DatasetId d = 0; d < a.dataset_count(); ++d) {
    EXPECT_EQ(a.dataset_bytes(d), b.dataset_bytes(d));
    EXPECT_EQ(a.initial_region(d), b.initial_region(d));
  }
}

TEST(Workload, DifferentSeedDifferentStream) {
  const Federation fed(small_config());
  auto wc = small_workload();
  WorkloadGenerator a(wc, fed);
  wc.seed = 7;
  WorkloadGenerator b(wc, fed);
  const auto qa = a.next();
  const auto qb = b.next();
  ASSERT_TRUE(qa && qb);
  EXPECT_NE(qa->at, qb->at);
}

TEST(Workload, DiurnalRushShape) {
  const Federation fed(small_config());
  WorkloadConfig wc = small_workload();
  wc.rush_hour = 14.0;
  wc.rush_amplitude = 1.2;
  WorkloadGenerator wl(wc, fed);
  const double base = wc.requests_per_day / 86400.0;
  const double peak = wl.rate_at(14.0 * 3600.0);
  const double trough = wl.rate_at(2.0 * 3600.0);
  EXPECT_NEAR(peak, base * (1.0 + wc.rush_amplitude), base * 0.01);
  EXPECT_NEAR(trough, base, base * 0.01);
  // The rush repeats daily: same clock time tomorrow, same rate.
  EXPECT_NEAR(wl.rate_at(14.0 * 3600.0 + 86400.0), peak, peak * 1e-9);
}

TEST(Workload, RequestsAreOrderedAndInHorizon) {
  const Federation fed(small_config());
  const auto wc = small_workload();
  WorkloadGenerator wl(wc, fed);
  Time last = Time::zero();
  const double horizon_s = wc.days * 86400.0;
  while (const auto q = wl.next()) {
    EXPECT_GE(q->at, last);
    EXPECT_LE(q->at.as_sec(), horizon_s);
    EXPECT_GE(q->dataset, 0);
    EXPECT_LT(q->dataset, wc.dataset_count);
    // Destinations are always leaves.
    const GridSite* info = fed.site_info(q->dst);
    ASSERT_NE(info, nullptr);
    EXPECT_FALSE(info->is_archive);
    last = q->at;
  }
}

TEST(Workload, DatasetSizesWithinClamp) {
  const Federation fed(small_config());
  WorkloadGenerator wl(small_workload(), fed);
  for (DatasetId d = 0; d < wl.dataset_count(); ++d) {
    EXPECT_GE(wl.dataset_bytes(d), 4096);
    EXPECT_LE(wl.dataset_bytes(d), Bytes{1} << 40);
    EXPECT_GE(wl.initial_region(d), 0);
    EXPECT_LT(wl.initial_region(d), fed.regions());
  }
}

TEST(Catalog, PlacementNames) {
  EXPECT_STREQ(placement_name(Placement::WidestPath), "widest");
  EXPECT_STREQ(placement_name(Placement::LeastLoaded), "least-loaded");
  EXPECT_EQ(placement_from("widest"), Placement::WidestPath);
  EXPECT_EQ(placement_from("least-loaded"), Placement::LeastLoaded);
  EXPECT_THROW(placement_from("round-robin"), std::invalid_argument);
}

TEST(Catalog, WidestPathPrefersTheFatterPipe) {
  // dst reaches replica a over T3 but replica b only over T1: widest
  // must pick a even when b is idle and a is heavily loaded.
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId dst = w.add_site("dst");
  w.add_link(a, dst, wan::LinkType::T3, Time::ms(1));
  w.add_link(b, dst, wan::LinkType::T1, Time::ms(1));
  wan::RouteTable routes(w);
  ReplicaCatalog cat;
  const DatasetId d = cat.add_dataset(1'000'000, a);
  cat.add_replica(d, b);
  std::vector<double> backlog(3, 0.0);
  backlog[static_cast<std::size_t>(a)] = 1e9;  // widest ignores load
  EXPECT_EQ(cat.select_source(d, dst, Placement::WidestPath, routes, backlog),
            a);
  EXPECT_EQ(cat.select_source(d, dst, Placement::LeastLoaded, routes, backlog),
            b);
}

TEST(Catalog, TieBreaksOnLowestSiteId) {
  // Two equally wide, equally loaded replicas: the lower id wins.
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId dst = w.add_site("dst");
  w.add_link(a, dst, wan::LinkType::T3, Time::ms(1));
  w.add_link(b, dst, wan::LinkType::T3, Time::ms(1));
  wan::RouteTable routes(w);
  ReplicaCatalog cat;
  const DatasetId d = cat.add_dataset(1'000'000, b);  // registered b first
  cat.add_replica(d, a);
  const std::vector<double> backlog(3, 0.0);
  EXPECT_EQ(cat.select_source(d, dst, Placement::WidestPath, routes, backlog),
            a);
  EXPECT_EQ(cat.select_source(d, dst, Placement::LeastLoaded, routes, backlog),
            a);
}

TEST(Catalog, ExcludesDestinationAndUnroutable) {
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId dst = w.add_site("dst");
  w.add_site("island");
  w.add_link(a, dst, wan::LinkType::T3, Time::ms(1));
  wan::RouteTable routes(w);
  ReplicaCatalog cat;
  const DatasetId d = cat.add_dataset(1'000'000, dst);
  const std::vector<double> backlog(3, 0.0);
  // Only replica is the destination itself: nothing to pull from.
  EXPECT_EQ(cat.select_source(d, dst, Placement::WidestPath, routes, backlog),
            -1);
  const DatasetId d2 = cat.add_dataset(1'000'000, 2);  // on the island
  EXPECT_EQ(cat.select_source(d2, dst, Placement::WidestPath, routes, backlog),
            -1);
  cat.add_replica(d2, a);
  EXPECT_EQ(cat.select_source(d2, dst, Placement::WidestPath, routes, backlog),
            a);
}

TEST(Catalog, AddReplicaIsIdempotent) {
  ReplicaCatalog cat;
  const DatasetId d = cat.add_dataset(42, 0);
  cat.add_replica(d, 1);
  cat.add_replica(d, 1);
  EXPECT_EQ(cat.replicas(d).size(), 2u);
  EXPECT_TRUE(cat.has_replica(d, 0));
  EXPECT_TRUE(cat.has_replica(d, 1));
  EXPECT_FALSE(cat.has_replica(d, 2));
}

TEST(FlowEngine, SingleFlowCompletionRecord) {
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  w.add_link(a, b, wan::LinkType::T3, Time::ms(1));
  wan::RouteTable routes(w);
  wan::FlowEngine engine(routes);
  const Bytes bytes = 10'000'000;
  std::vector<wan::FlowEngine::Completion> done;
  engine.start(a, b, bytes, 77);
  EXPECT_EQ(engine.active(), 1);
  EXPECT_GT(engine.rate_bps(0), 0.0);
  engine.run_to_completion([&](const auto& c) { done.push_back(c); });
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].src, a);
  EXPECT_EQ(done[0].dst, b);
  EXPECT_EQ(done[0].bytes, bytes);
  EXPECT_EQ(done[0].tag, 77u);
  const double t3 = wan::link_bandwidth(wan::LinkType::T3).bytes_per_sec();
  EXPECT_NEAR(done[0].finish.as_sec(), static_cast<double>(bytes) / t3, 1e-3);
  EXPECT_EQ(engine.active(), 0);
  EXPECT_EQ(engine.stats().started, 1);
  EXPECT_EQ(engine.stats().completed, 1);
  EXPECT_EQ(engine.stats().active_peak, 1);
}

TEST(FlowEngine, RejectsBadStarts) {
  wan::Wan w;
  w.add_site("a");
  w.add_site("island");
  wan::RouteTable routes(w);
  wan::FlowEngine engine(routes);
  EXPECT_THROW(engine.start(0, 1, 100), std::invalid_argument);
  EXPECT_THROW(engine.start(0, 0, 100), ContractError);
  EXPECT_THROW(engine.start(0, 1, 0), ContractError);
}

TEST(FlowEngine, CallbackMayStartFollowOnFlows) {
  // A completion callback chaining a second transfer — the grid's
  // cache-then-refetch shape in miniature.
  wan::Wan w;
  const SiteId a = w.add_site("a");
  const SiteId b = w.add_site("b");
  const SiteId c = w.add_site("c");
  w.add_link(a, b, wan::LinkType::T3, Time::ms(1));
  w.add_link(b, c, wan::LinkType::T3, Time::ms(1));
  wan::RouteTable routes(w);
  wan::FlowEngine engine(routes);
  std::vector<std::uint64_t> order;
  engine.start(a, b, 1'000'000, 1);
  engine.run_to_completion([&](const auto& done) {
    order.push_back(done.tag);
    if (done.tag == 1) engine.start(b, c, 2'000'000, 2);
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(engine.active(), 0);
}

// Completions with equal finish times arrive in schedule order, not in
// slot (FlowId) order: the second pair below reuses the freed slots in
// reverse (LIFO free list), so slot order and schedule order disagree.
TEST(FlowEngine, EqualFinishTimesCompleteInScheduleOrder) {
  wan::Wan w;
  const SiteId hub = w.add_site("hub");
  std::vector<SiteId> spokes;
  for (int i = 0; i < 4; ++i) {
    spokes.push_back(w.add_site("spoke-" + std::to_string(i)));
    w.add_link(hub, spokes.back(), wan::LinkType::T3, Time::ms(1));
  }
  wan::RouteTable routes(w);
  wan::FlowEngine engine(routes);
  std::vector<std::pair<std::uint64_t, wan::FlowEngine::FlowId>> order;
  std::vector<Time> finish;
  const auto record = [&](const wan::FlowEngine::Completion& c) {
    order.emplace_back(c.tag, c.id);
    finish.push_back(c.finish);
  };
  // Disjoint links, equal sizes and bandwidth: identical finish times.
  engine.start(hub, spokes[2], 4'000'000, 1);
  engine.start(hub, spokes[0], 4'000'000, 2);
  engine.start(hub, spokes[3], 4'000'000, 3);
  engine.run_to_completion(record);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(finish[0], finish[1]);
  EXPECT_EQ(finish[1], finish[2]);
  EXPECT_EQ(order[0].first, 1u);
  EXPECT_EQ(order[1].first, 2u);
  EXPECT_EQ(order[2].first, 3u);

  order.clear();
  finish.clear();
  engine.start(hub, spokes[1], 2'000'000, 4);
  engine.start(hub, spokes[3], 2'000'000, 5);
  engine.run_to_completion(record);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(finish[0], finish[1]);
  EXPECT_EQ(order[0].first, 4u);
  EXPECT_EQ(order[1].first, 5u);
  EXPECT_GT(order[0].second, order[1].second);  // slots reused in reverse
}

// The engine against the full-recompute oracle under contention: 220
// transfers into the leaves of the default 4x6 federation, started
// within 2 s, so each leaf access link carries many flows and water-fill
// passes freeze several flows per bottleneck. Finish times must agree
// (up to the engine's picosecond event rounding and rate-change
// absorption), and the scenario must really hold >= 150 flows at once.
TEST(FlowEngine, MatchesReferenceUnderFederationRushHour) {
  const Federation fed{FederationConfig{}};
  const wan::Wan& w = fed.wan();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    hpccsim::Rng rng(seed);
    std::vector<wan::TransferRequest> flows;
    for (int i = 0; i < 220; ++i) {
      // Mostly archive -> leaf pulls, some leaf -> leaf across the ring.
      const auto& leaves = fed.leaves();
      const SiteId dst = leaves[rng.below(leaves.size())].site;
      SiteId src = fed.archive_of(
          static_cast<std::int32_t>(rng.below(fed.archives().size())));
      if (rng.below(4) == 0) src = leaves[rng.below(leaves.size())].site;
      if (src == dst) continue;
      const Bytes bytes = 20'000'000 + rng.below(80'000'000);
      const auto start = Time::ms(static_cast<std::int64_t>(rng.below(2000)));
      flows.push_back({src, dst, bytes, start});
    }
    wan::RouteTable routes(w);
    const auto engine = wan::simulate_flows(routes, flows);
    const auto reference =
        wan::oracle::FluidReference(w, flows).run_reference();
    ASSERT_EQ(engine.size(), reference.size());

    std::vector<std::pair<Time, int>> edges;  // +1 at start, -1 at finish
    for (std::size_t f = 0; f < engine.size(); ++f) {
      const wan::TransferOutcome& got = engine[f];
      const wan::TransferOutcome& want = reference[f];
      ASSERT_TRUE(got.ok) << "seed " << seed << " flow " << f;
      ASSERT_TRUE(want.ok) << "seed " << seed << " flow " << f;
      EXPECT_NEAR(got.finish.as_sec(), want.finish.as_sec(),
                  1e-3 + want.finish.as_sec() * 1e-9)
          << "seed " << seed << " flow " << f;
      EXPECT_NEAR(got.slowdown, want.slowdown, 1e-3)
          << "seed " << seed << " flow " << f;
      edges.emplace_back(flows[f].start, +1);
      edges.emplace_back(want.finish, -1);
    }
    std::sort(edges.begin(), edges.end());  // finishes before starts on ties
    int active = 0, peak = 0;
    for (const auto& e : edges) peak = std::max(peak, active += e.second);
    EXPECT_GE(peak, 150) << "seed " << seed;
  }
}

GridSimulator::Stats run_grid(Placement policy, obs::Registry* reg = nullptr) {
  const Federation fed(small_config());
  WorkloadGenerator wl(small_workload(), fed);
  GridSimulator sim(fed, policy);
  sim.run(wl);
  if (reg != nullptr) sim.export_counters(*reg);
  return sim.stats();
}

TEST(GridSimulator, RequestAccountingBalances) {
  for (const Placement p : {Placement::WidestPath, Placement::LeastLoaded}) {
    const auto s = run_grid(p);
    EXPECT_GT(s.requests, 500);
    EXPECT_GT(s.flows_completed, 0);
    // Every request is exactly one of: cache hit, coalesced join,
    // unroutable, or the head of a completed flow.
    EXPECT_EQ(s.requests,
              s.cache_hits + s.coalesced + s.unroutable + s.flows_completed);
    EXPECT_EQ(s.unroutable, 0);  // the federation is fully connected
    EXPECT_EQ(s.cache_fills + s.cache_rejected, s.flows_completed);
    EXPECT_GT(s.bytes_moved, 0);
    EXPECT_GE(s.mean_slowdown(), 1.0 - 1e-9);
  }
}

TEST(GridSimulator, CountersMatchStatsAndConserveBytes) {
  obs::Registry reg;
  const auto s = run_grid(Placement::WidestPath, &reg);
  EXPECT_EQ(reg.value("grid.requests"), s.requests);
  EXPECT_EQ(reg.value("grid.flows.completed"), s.flows_completed);
  EXPECT_EQ(reg.value("grid.bytes_moved"),
            static_cast<std::int64_t>(s.bytes_moved));
  // Byte conservation: total site ingress == total egress == moved.
  const Federation fed(small_config());
  std::int64_t in = 0, out = 0;
  const auto sum = [&](const GridSite& g) {
    const std::string base = "grid.site." + fed.wan().site_name(g.site);
    in += reg.value(base + ".ingress_bytes");
    out += reg.value(base + ".egress_bytes");
  };
  for (const GridSite& g : fed.archives()) sum(g);
  for (const GridSite& g : fed.leaves()) sum(g);
  EXPECT_EQ(in, static_cast<std::int64_t>(s.bytes_moved));
  EXPECT_EQ(out, static_cast<std::int64_t>(s.bytes_moved));
}

TEST(GridSimulator, DeterministicAcrossRuns) {
  obs::Registry a, b;
  run_grid(Placement::LeastLoaded, &a);
  run_grid(Placement::LeastLoaded, &b);
  EXPECT_EQ(a.json(), b.json());
}

TEST(GridSimulator, CachingServesRepeatRequests) {
  // With a Zipf-skewed universe and room in the leaf caches, repeat
  // pulls of popular datasets must hit.
  const auto s = run_grid(Placement::WidestPath);
  EXPECT_GT(s.cache_hits, 0);
  EXPECT_GT(s.cache_fills, 0);
}

// Exact results of the engine: any change to its floating-point
// evaluation sequence (or to completion order) moves these. The
// widest-path values are those of the engine before its water-fill was
// indexed by link. The least-loaded ones moved once, when the ripple
// began re-rating a bottleneck whose non-members ran faster than its
// share (it had stopped short of max-min; see the rush-hour test above).
struct GridGolden {
  Placement policy;
  std::int64_t recomputes, rate_updates, flows_completed;
  Bytes bytes_moved;
  double mean_slowdown;
};

void expect_golden(const FederationConfig& fc, const WorkloadConfig& wc,
                   const GridGolden& want) {
  const Federation fed(fc);
  WorkloadGenerator wl(wc, fed);
  GridSimulator sim(fed, want.policy);
  sim.run(wl);
  const auto& s = sim.stats();
  const auto& e = sim.engine_stats();
  const char* name = placement_name(want.policy);
  EXPECT_EQ(e.recomputes, want.recomputes) << name;
  EXPECT_EQ(e.rate_updates, want.rate_updates) << name;
  EXPECT_EQ(e.stale_events, 0) << name;
  EXPECT_EQ(s.flows_completed, want.flows_completed) << name;
  EXPECT_EQ(s.bytes_moved, want.bytes_moved) << name;
  EXPECT_EQ(s.mean_slowdown(), want.mean_slowdown) << name;
}

TEST(GridSimulator, GoldenSmallFederation) {
  for (const GridGolden& g :
       {GridGolden{Placement::WidestPath, 610, 630, 490, 5200461237,
                   1.1443663086348752},
        GridGolden{Placement::LeastLoaded, 690, 686, 490, 5200461237,
                   1.2130452411372501}})
    expect_golden(small_config(), small_workload(), g);
}

// A rush hour squeezed into the first 18 minutes on the default 4x6
// federation: 169 (widest) and 498 (least-loaded) concurrent flows.
TEST(GridSimulator, GoldenRushHour) {
  WorkloadConfig wc;
  wc.days = 0.0125;
  wc.requests_per_day = 600000.0;
  wc.dataset_count = 20000;
  wc.rush_hour = 0.2;
  wc.rush_width_h = 0.1;
  wc.median_bytes = 3.5e6;
  for (const GridGolden& g :
       {GridGolden{Placement::WidestPath, 32601, 135497, 12785, 74782605304,
                   5.7415188523444396},
        GridGolden{Placement::LeastLoaded, 68035, 2488585, 12785,
                   74782605304, 19.876635788152711}})
    expect_golden(FederationConfig{}, wc, g);
}

TEST(GridSimulator, SingleShot) {
  const Federation fed(small_config());
  WorkloadGenerator wl(small_workload(), fed);
  GridSimulator sim(fed, Placement::WidestPath);
  sim.run(wl);
  WorkloadGenerator wl2(small_workload(), fed);
  EXPECT_THROW(sim.run(wl2), ContractError);
}

}  // namespace
}  // namespace hpccsim::grid
