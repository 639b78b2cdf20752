// Tests for the NX runtime: mailbox matching, point-to-point semantics,
// overhead accounting, and the full collective suite across algorithms
// and group shapes.
#include <gtest/gtest.h>

#include <numeric>

#include "nx/collectives.hpp"
#include "nx/machine_runtime.hpp"
#include "proc/machine.hpp"

namespace hpccsim::nx {
namespace {

using proc::MachineConfig;
using sim::Task;
using sim::Time;

MachineConfig tiny_machine(int nodes) {
  return proc::touchstone_delta().with_nodes(nodes);
}

// ------------------------------------------------------------- mailbox --

TEST(Mailbox, TagAndSourceFiltering) {
  sim::Engine e;
  Mailbox mb(e);
  mb.deliver(Message{1, 7, 10, {}});
  mb.deliver(Message{2, 7, 20, {}});
  mb.deliver(Message{1, 9, 30, {}});
  EXPECT_TRUE(mb.probe(1, 7));
  EXPECT_TRUE(mb.probe(kAnySource, 9));
  EXPECT_FALSE(mb.probe(3, kAnyTag));

  Message got;
  e.spawn([](Mailbox& box, Message& out) -> Task<> {
    out = co_await box.recv(2, kAnyTag);
  }(mb, got));
  e.run();
  EXPECT_EQ(got.src, 2);
  EXPECT_EQ(got.bytes, 20u);
  EXPECT_EQ(mb.queued(), 2u);
}

TEST(Mailbox, MatchesInArrivalOrder) {
  sim::Engine e;
  Mailbox mb(e);
  mb.deliver(Message{1, 5, 100, {}});
  mb.deliver(Message{1, 5, 200, {}});
  std::vector<Bytes> sizes;
  e.spawn([](Mailbox& box, std::vector<Bytes>& out) -> Task<> {
    out.push_back((co_await box.recv(1, 5)).bytes);
    out.push_back((co_await box.recv(1, 5)).bytes);
  }(mb, sizes));
  e.run();
  EXPECT_EQ(sizes, (std::vector<Bytes>{100, 200}));
}

TEST(Mailbox, PendingRecvsServedInPostOrder) {
  sim::Engine e;
  Mailbox mb(e);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    e.spawn([](Mailbox& box, std::vector<int>& o, int id) -> Task<> {
      (void)co_await box.recv(kAnySource, kAnyTag);
      o.push_back(id);
    }(mb, order, i));
  }
  e.spawn([](sim::Engine& eng, Mailbox& box) -> Task<> {
    co_await eng.delay(Time::us(1));
    box.deliver(Message{9, 1, 1, {}});
    box.deliver(Message{9, 1, 1, {}});
    box.deliver(Message{9, 1, 1, {}});
  }(e, mb));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// -------------------------------------------------------- point to point --

TEST(NxMachine, PingPongRoundTrip) {
  NxMachine m(tiny_machine(2));
  std::vector<double> got;
  m.run([&got](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      std::vector<double> vals{3.14, 2.71};
      co_await ctx.send_values(1, 1, std::move(vals));
      Message r = co_await ctx.recv(1, 2);
      got = r.values();
    } else {
      Message r = co_await ctx.recv(0, 1);
      std::vector<double> echoed = r.values();
      co_await ctx.send_values(0, 2, std::move(echoed));
    }
  });
  EXPECT_EQ(got, (std::vector<double>{3.14, 2.71}));
}

TEST(NxMachine, SendIsBufferedNotRendezvous) {
  // The sender finishes its send before the receiver ever posts a recv.
  NxMachine m(tiny_machine(2));
  Time send_done, recv_done;
  m.run([&](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 1, 1024);
      send_done = ctx.now();
    } else {
      co_await ctx.busy(Time::ms(50));
      (void)co_await ctx.recv(0, 1);
      recv_done = ctx.now();
    }
  });
  EXPECT_LT(send_done, Time::ms(1));
  EXPECT_GT(recv_done, Time::ms(50));
}

TEST(NxMachine, MessageLatencyIncludesOverheads) {
  NxMachine m(tiny_machine(2));
  Time arrival;
  m.run([&arrival](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 1, 0);
    } else {
      (void)co_await ctx.recv(0, 1);
      arrival = ctx.now();
    }
  });
  const auto& cfg = m.config();
  // At least send + recv software overhead.
  EXPECT_GE(arrival, cfg.send_overhead + cfg.recv_overhead);
}

TEST(NxMachine, LargerMessagesTakeLonger) {
  auto one_way = [](Bytes bytes) {
    NxMachine m(tiny_machine(2));
    Time arrival;
    m.run([&arrival, bytes](NxContext& ctx) -> Task<> {
      if (ctx.rank() == 0) {
        co_await ctx.send(1, 1, bytes);
      } else {
        (void)co_await ctx.recv(0, 1);
        arrival = ctx.now();
      }
    });
    return arrival;
  };
  EXPECT_GT(one_way(1 * MiB), one_way(1 * KiB));
}

TEST(NxMachine, StatsAccumulate) {
  NxMachine m(tiny_machine(2));
  m.run([](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 1, 4096);
      co_await ctx.compute(proc::Kernel::Gemm, 32, 32, 32);
    } else {
      (void)co_await ctx.recv(0, 1);
    }
  });
  const NodeStats s = m.total_stats();
  EXPECT_EQ(s.sends, 1u);
  EXPECT_EQ(s.recvs, 1u);
  EXPECT_EQ(s.bytes_sent, 4096u);
  EXPECT_EQ(s.flops_charged, 2u * 32 * 32 * 32);
  EXPECT_GT(s.compute_time, Time::zero());
}

TEST(NxMachine, DeadlockOnMissingSendIsDetected) {
  NxMachine m(tiny_machine(2));
  EXPECT_THROW(m.run([](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 1) (void)co_await ctx.recv(0, 1);  // never sent
  }),
               sim::DeadlockError);
}

TEST(NxMachine, RunEachAllowsHeterogeneousPrograms) {
  NxMachine m(tiny_machine(2));
  int served = 0;
  std::vector<NxMachine::Program> progs;
  progs.push_back([&served](NxContext& ctx) -> Task<> {  // server
    Message q = co_await ctx.recv(kAnySource, kAnyTag);
    served = static_cast<int>(q.bytes);
  });
  progs.push_back([](NxContext& ctx) -> Task<> {  // client
    co_await ctx.send(0, 3, 42);
  });
  m.run_each(progs);
  EXPECT_EQ(served, 42);
}

// ----------------------------------------------------------- collectives --

// Collectives are validated on several machine sizes including
// non-power-of-two (Delta-like grids are 16x33).
class Collectives : public ::testing::TestWithParam<int> {};

TEST_P(Collectives, BarrierSynchronizesEveryone) {
  NxMachine m(tiny_machine(GetParam()));
  std::vector<Time> after(static_cast<std::size_t>(GetParam()));
  m.run([&after](NxContext& ctx) -> Task<> {
    // Stagger arrival; everyone leaves at (or after) the last arrival.
    co_await ctx.busy(Time::us(100) * static_cast<std::uint64_t>(ctx.rank() + 1));
    co_await barrier(ctx, Group::world(ctx));
    after[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  const Time last_arrival =
      Time::us(100) * static_cast<std::uint64_t>(GetParam());
  for (const Time t : after) EXPECT_GE(t, last_arrival);
}

TEST_P(Collectives, BcastDeliversPayloadToAll) {
  const int n = GetParam();
  NxMachine m(tiny_machine(n));
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  m.run([&got](NxContext& ctx) -> Task<> {
    Payload p;
    if (ctx.rank() == 0) p = payload_of(1.0, 2.0, 3.0);
    Message r = co_await bcast(ctx, Group::world(ctx), 0, 24, p);
    got[static_cast<std::size_t>(ctx.rank())] = r.values();
  });
  for (const auto& v : got) EXPECT_EQ(v, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST_P(Collectives, AllreduceSumMatchesClosedForm) {
  const int n = GetParam();
  NxMachine m(tiny_machine(n));
  std::vector<double> sums(static_cast<std::size_t>(n));
  m.run([&sums](NxContext& ctx) -> Task<> {
    const double mine = static_cast<double>(ctx.rank() + 1);
    Message r = co_await allreduce(ctx, Group::world(ctx), ReduceOp::Sum, 8,
                                   payload_of(mine));
    sums[static_cast<std::size_t>(ctx.rank())] = r.values().at(0);
  });
  const double expect = static_cast<double>(n) * (n + 1) / 2.0;
  for (const double s : sums) EXPECT_DOUBLE_EQ(s, expect);
}

TEST_P(Collectives, ReduceMaxAbsLocFindsPivot) {
  const int n = GetParam();
  NxMachine m(tiny_machine(n));
  std::vector<double> winner(static_cast<std::size_t>(n), -1);
  m.run([&winner, n](NxContext& ctx) -> Task<> {
    // Rank n/2 holds the largest magnitude (negative, to test fabs).
    const double v = ctx.rank() == n / 2 ? -100.0 : static_cast<double>(ctx.rank());
    Message r = co_await allreduce(ctx, Group::world(ctx), ReduceOp::MaxAbsLoc,
                                   16, payload_of(v, double(ctx.rank())));
    winner[static_cast<std::size_t>(ctx.rank())] = r.values().at(1);
  });
  for (const double w : winner) EXPECT_EQ(w, n / 2);
}

TEST_P(Collectives, GatherCollectsInGroupOrder) {
  const int n = GetParam();
  NxMachine m(tiny_machine(n));
  std::vector<double> collected;
  m.run([&collected](NxContext& ctx) -> Task<> {
    auto msgs = co_await gather(ctx, Group::world(ctx), 0, 8,
                                payload_of(double(ctx.rank()) * 10));
    if (ctx.rank() == 0)
      for (const auto& msg : msgs) collected.push_back(msg.values().at(0));
  });
  ASSERT_EQ(collected.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(collected[static_cast<std::size_t>(i)], i * 10.0);
}

TEST_P(Collectives, ScatterDeliversPerRankSlices) {
  const int n = GetParam();
  NxMachine m(tiny_machine(n));
  std::vector<double> got(static_cast<std::size_t>(n));
  m.run([&got, n](NxContext& ctx) -> Task<> {
    std::vector<Payload> slices;
    if (ctx.rank() == 0)
      for (int i = 0; i < n; ++i) slices.push_back(payload_of(i + 0.5));
    Message r = co_await scatter(ctx, Group::world(ctx), 0, 8, std::move(slices));
    got[static_cast<std::size_t>(ctx.rank())] = r.values().at(0);
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i + 0.5);
}

TEST_P(Collectives, AlltoallExchangesAllSlices) {
  const int n = GetParam();
  NxMachine m(tiny_machine(n));
  std::vector<bool> ok(static_cast<std::size_t>(n), false);
  m.run([&ok, n](NxContext& ctx) -> Task<> {
    std::vector<Payload> slices;
    for (int i = 0; i < n; ++i)
      slices.push_back(payload_of(ctx.rank() * 1000.0 + i));
    auto got = co_await alltoall(ctx, Group::world(ctx), 8, std::move(slices));
    bool all = true;
    for (int i = 0; i < n; ++i)
      all = all && got[static_cast<std::size_t>(i)].values().at(0) ==
                       i * 1000.0 + ctx.rank();
    ok[static_cast<std::size_t>(ctx.rank())] = all;
  });
  for (bool b : ok) EXPECT_TRUE(b);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Collectives, ::testing::Values(1, 2, 5, 8, 16, 33));

// Algorithm variants must agree on results.
class BcastAlgos : public ::testing::TestWithParam<CollectiveAlgo> {};

TEST_P(BcastAlgos, DeliversFromNonzeroRoot) {
  NxMachine m(tiny_machine(12));
  std::vector<double> got(12, 0);
  const CollectiveAlgo algo = GetParam();
  m.run([&got, algo](NxContext& ctx) -> Task<> {
    Payload p;
    if (ctx.rank() == 7) p = payload_of(42.0);
    Message r = co_await bcast(ctx, Group::world(ctx), 7, 8, p, algo);
    got[static_cast<std::size_t>(ctx.rank())] = r.values().at(0);
  });
  for (const double v : got) EXPECT_EQ(v, 42.0);
}

INSTANTIATE_TEST_SUITE_P(Algos, BcastAlgos,
                         ::testing::Values(CollectiveAlgo::Binomial,
                                           CollectiveAlgo::Ring,
                                           CollectiveAlgo::Flat));

class AllreduceAlgos : public ::testing::TestWithParam<CollectiveAlgo> {};

TEST_P(AllreduceAlgos, SumAgreesAcrossAlgorithms) {
  NxMachine m(tiny_machine(16));  // power of two for recursive doubling
  std::vector<double> sums(16);
  const CollectiveAlgo algo = GetParam();
  m.run([&sums, algo](NxContext& ctx) -> Task<> {
    Message r =
        co_await allreduce(ctx, Group::world(ctx), ReduceOp::Sum, 8,
                           payload_of(double(ctx.rank())), algo);
    sums[static_cast<std::size_t>(ctx.rank())] = r.values().at(0);
  });
  for (const double s : sums) EXPECT_DOUBLE_EQ(s, 120.0);
}

INSTANTIATE_TEST_SUITE_P(Algos, AllreduceAlgos,
                         ::testing::Values(CollectiveAlgo::Binomial,
                                           CollectiveAlgo::Ring,
                                           CollectiveAlgo::RecursiveDoubling));

TEST(CollectiveGroups, RowAndColumnGroupsOperateIndependently) {
  // 2x3 grid: row groups {0,1,2},{3,4,5}; col groups {0,3},{1,4},{2,5}.
  NxMachine m(tiny_machine(6));
  std::vector<double> row_sum(6), col_sum(6);
  m.run([&](NxContext& ctx) -> Task<> {
    const int r = ctx.rank() / 3, c = ctx.rank() % 3;
    Group rowg({r * 3 + 0, r * 3 + 1, r * 3 + 2}, 1 + r);
    Group colg({c, c + 3}, 3 + c);
    Message rm = co_await allreduce(ctx, rowg, ReduceOp::Sum, 8,
                                    payload_of(double(ctx.rank())));
    Message cm = co_await allreduce(ctx, colg, ReduceOp::Sum, 8,
                                    payload_of(double(ctx.rank())));
    row_sum[static_cast<std::size_t>(ctx.rank())] = rm.values().at(0);
    col_sum[static_cast<std::size_t>(ctx.rank())] = cm.values().at(0);
  });
  EXPECT_EQ(row_sum[0], 3.0);   // 0+1+2
  EXPECT_EQ(row_sum[4], 12.0);  // 3+4+5
  EXPECT_EQ(col_sum[1], 5.0);   // 1+4
  EXPECT_EQ(col_sum[5], 7.0);   // 2+5
}

TEST(CollectiveOps, CombineHelpers) {
  const Payload a = payload_of(1.0, 5.0);
  const Payload b = payload_of(3.0, 2.0);
  EXPECT_EQ(combine(ReduceOp::Sum, a, b)->at(0), 4.0);
  EXPECT_EQ(combine(ReduceOp::Max, a, b)->at(1), 5.0);
  EXPECT_EQ(combine(ReduceOp::Min, a, b)->at(0), 1.0);
  // Modeled mode: null payloads propagate.
  EXPECT_EQ(combine(ReduceOp::Sum, {}, b), nullptr);
  // MaxAbsLoc tie -> smaller index.
  const Payload t1 = payload_of(-2.0, 3.0);
  const Payload t2 = payload_of(2.0, 7.0);
  EXPECT_EQ(combine(ReduceOp::MaxAbsLoc, t1, t2)->at(1), 3.0);
}

TEST(CollectiveDeterminism, BinomialSumBitIdenticalAcrossNodes) {
  NxMachine m(tiny_machine(13));
  std::vector<double> sums(13);
  m.run([&sums](NxContext& ctx) -> Task<> {
    // Values chosen so different summation orders round differently.
    const double mine = 1.0 / (ctx.rank() + 3.0);
    Message r = co_await allreduce(ctx, Group::world(ctx), ReduceOp::Sum, 8,
                                   payload_of(mine));
    sums[static_cast<std::size_t>(ctx.rank())] = r.values().at(0);
  });
  for (const double s : sums) EXPECT_EQ(s, sums[0]);  // bitwise equal
}

}  // namespace
}  // namespace hpccsim::nx

// ------------------------------------------------------- non-blocking --

namespace hpccsim::nx {
namespace {

using proc::MachineConfig;
using sim::Task;
using sim::Time;

MachineConfig nb_machine(int nodes) {
  return proc::touchstone_delta().with_nodes(nodes);
}

TEST(NonBlocking, IrecvCompletesOnMatch) {
  NxMachine m(nb_machine(2));
  double got = 0;
  m.run([&got](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.busy(Time::ms(1));
      co_await ctx.send(1, 5, 8, payload_of(6.5));
    } else {
      Request r = ctx.irecv(0, 5);
      EXPECT_FALSE(r.done());
      Message msg = co_await r.wait();
      got = msg.values().at(0);
      EXPECT_TRUE(r.done());
    }
  });
  EXPECT_EQ(got, 6.5);
}

TEST(NonBlocking, IsendReturnsImmediately) {
  NxMachine m(nb_machine(2));
  Time post_time, after_post;
  m.run([&](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      post_time = ctx.now();
      Request r = ctx.isend(1, 1, 1 * MiB);
      after_post = ctx.now();
      co_await r.wait();
    } else {
      (void)co_await ctx.recv(0, 1);
    }
  });
  // Posting costs zero simulated time; the wait absorbs the overhead.
  EXPECT_EQ(post_time, after_post);
}

TEST(NonBlocking, OverlapsCommunicationWithCompute) {
  // With irecv posted before a long compute, total time is max(compute,
  // message arrival), not the sum.
  NxMachine m(nb_machine(2));
  Time finish;
  m.run([&finish](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 2, 1024);
    } else {
      Request r = ctx.irecv(0, 2);
      co_await ctx.busy(Time::ms(20));  // long compute
      (void)co_await r.wait();
      finish = ctx.now();
    }
  });
  EXPECT_LT(finish, Time::ms(21));  // overlapped, not 20ms + latency
}

TEST(NonBlocking, IsendsSerializeOnCoprocessor) {
  // Two isends posted back-to-back: the second departs one overhead
  // later, so its request completes later.
  NxMachine m(nb_machine(3));
  Time t1, t2;
  m.run([&](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      Request a = ctx.isend(1, 1, 64);
      Request b = ctx.isend(2, 1, 64);
      co_await a.wait();
      t1 = ctx.now();
      co_await b.wait();
      t2 = ctx.now();
    } else {
      (void)co_await ctx.recv(0, 1);
    }
  });
  EXPECT_EQ((t2 - t1), nb_machine(3).send_overhead);
}

TEST(NonBlocking, WaitallDrainsEverything) {
  NxMachine m(nb_machine(4));
  std::vector<double> got;
  m.run([&got](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      std::vector<Request> reqs;
      for (int r = 1; r < ctx.nodes(); ++r) reqs.push_back(ctx.irecv(r, 9));
      co_await ctx.waitall(reqs);
      for (auto& r : reqs) {
        Message msg = co_await r.wait();  // already done: immediate
        (void)msg;
      }
      got.push_back(1.0);
    } else {
      co_await ctx.send(0, 9, 8, payload_of(double(ctx.rank())));
    }
  });
  EXPECT_EQ(got.size(), 1u);
}

TEST(NonBlocking, PostingOrderGovernsMatching) {
  // Two irecvs with the same (src, tag): first posted gets first message.
  NxMachine m(nb_machine(2));
  std::vector<double> order;
  m.run([&order](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 3, 8, payload_of(1.0));
      co_await ctx.send(1, 3, 8, payload_of(2.0));
    } else {
      Request a = ctx.irecv(0, 3);
      Request b = ctx.irecv(0, 3);
      Message mb = co_await b.wait();
      Message ma = co_await a.wait();
      order.push_back(ma.values().at(0));
      order.push_back(mb.values().at(0));
    }
  });
  EXPECT_EQ(order, (std::vector<double>{1.0, 2.0}));
}

TEST(NonBlocking, HaloExchangePattern) {
  // The canonical use: post all receives, send all, waitall, compute.
  const int n = 8;
  NxMachine m(nb_machine(n));
  std::vector<double> sums(n, 0);
  m.run([&sums, n](NxContext& ctx) -> Task<> {
    const int left = (ctx.rank() + n - 1) % n;
    const int right = (ctx.rank() + 1) % n;
    Request rl = ctx.irecv(left, 4);
    Request rr = ctx.irecv(right, 4);
    co_await ctx.send(right, 4, 8, payload_of(double(ctx.rank())));
    co_await ctx.send(left, 4, 8, payload_of(double(ctx.rank())));
    Message ml = co_await rl.wait();
    Message mr = co_await rr.wait();
    sums[ctx.rank()] = ml.values().at(0) + mr.values().at(0);
  });
  for (int r = 0; r < n; ++r) {
    const int left = (r + n - 1) % n, right = (r + 1) % n;
    EXPECT_EQ(sums[r], left + right) << "rank " << r;
  }
}

TEST(NonBlocking, UnmatchedIrecvDeadlocks) {
  NxMachine m(nb_machine(2));
  EXPECT_THROW(m.run([](NxContext& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      Request r = ctx.irecv(1, 1);  // node 1 never sends
      (void)co_await r.wait();
    }
    co_return;
  }),
               sim::DeadlockError);
}

}  // namespace
}  // namespace hpccsim::nx

// ------------------------------------------------------------- tracing --

namespace hpccsim::nx {
namespace {

TEST(MessageTrace, RecordsEveryLaunch) {
  NxMachine m(proc::touchstone_delta().with_nodes(2));
  m.enable_message_trace();
  m.run([](NxContext& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 7, 4096);
      co_await ctx.send(1, 8, 128);
    } else {
      (void)co_await ctx.recv(0, 7);
      (void)co_await ctx.recv(0, 8);
    }
  });
  const auto& tr = m.message_trace();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr[0].src, 0);
  EXPECT_EQ(tr[0].dst, 1);
  EXPECT_EQ(tr[0].tag, 7);
  EXPECT_EQ(tr[0].bytes, 4096u);
  EXPECT_LT(tr[0].depart, tr[0].arrive);
  EXPECT_LE(tr[0].depart, tr[1].depart);  // trace in launch order
}

TEST(MessageTrace, DisabledByDefaultAndCsvShape) {
  NxMachine m(proc::touchstone_delta().with_nodes(2));
  m.run([](NxContext& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) co_await ctx.send(1, 1, 64);
    else (void)co_await ctx.recv(0, 1);
  });
  EXPECT_TRUE(m.message_trace().empty());

  NxMachine m2(proc::touchstone_delta().with_nodes(2));
  m2.enable_message_trace();
  m2.run([](NxContext& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) co_await ctx.send(1, 1, 64);
    else (void)co_await ctx.recv(0, 1);
  });
  const std::string csv = m2.message_trace_csv();
  EXPECT_NE(csv.find("depart_us,arrive_us,src,dst,tag,bytes"),
            std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);  // header + 1 row
}

TEST(MessageTrace, CollectivesAreVisible) {
  NxMachine m(proc::touchstone_delta().with_nodes(8));
  m.enable_message_trace();
  m.run([](NxContext& ctx) -> sim::Task<> {
    co_await barrier(ctx, Group::world(ctx));
  });
  // A barrier on 8 nodes is an allreduce: 7 up + 7 down messages.
  EXPECT_EQ(m.message_trace().size(), 14u);
}

}  // namespace
}  // namespace hpccsim::nx

// ----------------------------------------- allgather / reduce-scatter --

namespace hpccsim::nx {
namespace {

class MoreCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MoreCollectives, AllgatherDeliversAllSlices) {
  const int n = GetParam();
  NxMachine m(proc::touchstone_delta().with_nodes(n));
  std::vector<bool> ok(static_cast<std::size_t>(n), false);
  m.run([&ok, n](NxContext& ctx) -> sim::Task<> {
    auto all = co_await allgather(ctx, Group::world(ctx), 8,
                                  payload_of(ctx.rank() * 2.0));
    bool good = static_cast<int>(all.size()) == n;
    for (int i = 0; i < n; ++i)
      good = good && all[static_cast<std::size_t>(i)].values().at(0) == i * 2.0;
    ok[static_cast<std::size_t>(ctx.rank())] = good;
  });
  for (bool b : ok) EXPECT_TRUE(b);
}

TEST_P(MoreCollectives, ReduceScatterSumsAndSegments) {
  const int n = GetParam();
  NxMachine m(proc::touchstone_delta().with_nodes(n));
  std::vector<double> got(static_cast<std::size_t>(n), -1);
  m.run([&got, n](NxContext& ctx) -> sim::Task<> {
    // Contribution: vector of length 2n, entry j = rank + j.
    std::vector<double> v(static_cast<std::size_t>(2 * n));
    for (int j = 0; j < 2 * n; ++j)
      v[static_cast<std::size_t>(j)] = ctx.rank() + j;
    Message seg = co_await reduce_scatter(
        ctx, Group::world(ctx), ReduceOp::Sum,
        doubles_bytes(static_cast<std::size_t>(2 * n)),
        make_payload(std::move(v)));
    // My segment is entries [2*me, 2*me+2); entry j sums to
    // sum_r (r + j) = n(n-1)/2 + n*j.
    got[static_cast<std::size_t>(ctx.rank())] = seg.values().at(0);
  });
  for (int r = 0; r < n; ++r) {
    const double expect = n * (n - 1) / 2.0 + n * (2.0 * r);
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(r)], expect) << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MoreCollectives,
                         ::testing::Values(1, 2, 4, 7, 16));

TEST(SendRecv, PairedExchangeBothDirections) {
  NxMachine m(proc::touchstone_delta().with_nodes(2));
  std::vector<double> got(2);
  m.run([&got](NxContext& ctx) -> sim::Task<> {
    Message r = co_await sendrecv(ctx, 1 - ctx.rank(), 6, 8,
                                  payload_of(100.0 + ctx.rank()));
    got[static_cast<std::size_t>(ctx.rank())] = r.values().at(0);
  });
  EXPECT_EQ(got[0], 101.0);
  EXPECT_EQ(got[1], 100.0);
}

TEST(AllgatherTiming, RingCostScalesWithGroupSize) {
  auto elapsed = [](int n) {
    NxMachine m(proc::touchstone_delta().with_nodes(n));
    return m.run([](NxContext& ctx) -> sim::Task<> {
      (void)co_await allgather(ctx, Group::world(ctx), 1024);
    });
  };
  // P-1 ring steps: 16 nodes take noticeably longer than 4.
  EXPECT_GT(elapsed(16), elapsed(4));
}

}  // namespace
}  // namespace hpccsim::nx

// --------------------------------------------------- payload semantics --

namespace hpccsim::nx {
namespace {

TEST(Payload, ThreeStatesAndSharedPtrCompatibility) {
  Payload none;
  EXPECT_FALSE(none);
  EXPECT_TRUE(none == nullptr);
  EXPECT_EQ(none.elements(), 0u);
  EXPECT_FALSE(none.is_sized());

  Payload sized = Payload::sized(17);
  EXPECT_FALSE(sized);  // sized payloads take the modeled-mode branch
  EXPECT_TRUE(sized == nullptr);
  EXPECT_TRUE(sized.is_sized());
  EXPECT_EQ(sized.elements(), 17u);

  Payload vals = make_payload({1.0, 2.0, 3.0});
  EXPECT_TRUE(vals);
  EXPECT_FALSE(vals == nullptr);
  EXPECT_TRUE(vals.has_values());
  EXPECT_EQ(vals.elements(), 3u);
  EXPECT_EQ(vals->at(1), 2.0);

  // Copies share the record (broadcast fan-out without duplication).
  Payload copy = vals;
  EXPECT_EQ(&*copy, &*vals);
  Payload moved = std::move(copy);
  EXPECT_EQ(&*moved, &*vals);
}

TEST(Payload, MessageValuesFallsBackToSharedEmpty) {
  Message shaped{0, 0, 128, Payload::sized(16)};
  EXPECT_TRUE(shaped.values().empty());
  EXPECT_EQ(&shaped.values(), &kNoPayloadValues);
  Message real{0, 0, 16, make_payload({4.0, 5.0})};
  EXPECT_EQ(real.values().size(), 2u);
}

TEST(Payload, PoolRecyclesRecords) {
  const auto& stats = detail::payload_pool_stats();
  // Warm one record into the free list.
  { Payload p = Payload::sized(8); }
  const std::uint64_t heap_before = stats.heap_allocs;
  const std::uint64_t sized_before = stats.sized_acquires;
  for (int i = 0; i < 100; ++i) {
    Payload p = Payload::sized(static_cast<std::size_t>(i));
    EXPECT_EQ(p.elements(), static_cast<std::size_t>(i));
  }
  EXPECT_EQ(stats.heap_allocs, heap_before);  // free-list hits only
  EXPECT_EQ(stats.sized_acquires, sized_before + 100);
}

TEST(CollectiveOps, CombinePropagatesModeledShape) {
  // Size-only contributions keep their shape through a modeled reduce.
  const Payload shaped = Payload::sized(6);
  const Payload other;
  EXPECT_TRUE(combine(ReduceOp::Sum, shaped, other).is_sized());
  EXPECT_EQ(combine(ReduceOp::Sum, other, shaped).elements(), 6u);
  EXPECT_FALSE(combine(ReduceOp::Sum, other, other).is_sized());
}

TEST(Mailbox, RecvOrAbortResolvesWhenTriggerAlreadyFired) {
  // Regression: an abortable receive whose trigger fired before the
  // await must resolve to nullopt without acquiring an abort guard.
  sim::Engine e;
  Mailbox mb(e);
  sim::Trigger abort(e);
  abort.fire();
  bool aborted = false;
  e.spawn([](Mailbox& box, sim::Trigger& ab, bool& out) -> sim::Task<> {
    auto m = co_await box.recv_or_abort(3, 7, ab);
    out = !m.has_value();
  }(mb, abort, aborted));
  e.run();
  EXPECT_TRUE(aborted);
}

}  // namespace
}  // namespace hpccsim::nx

// ---------------------------------------------- allocation accounting --
//
// The modeled-mode hot path (send/recv/collectives with size-only
// payloads) must be allocation-free in steady state: pooled payload
// records, SlotList mailboxes, inline delivery callbacks and recycled
// coroutine frames. Verified with a counting global operator new.

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Both new and delete are replaced together, so malloc/free pairing is
// consistent; GCC's heuristic only sees the free() half and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hpccsim::nx {
namespace {

TEST(NxAllocation, ModeledLuIterationCommIsAllocationFree) {
  // One modeled LU panel iteration's communication — pivot allreduce,
  // pivot/L/U broadcasts, a pairwise row swap and the trailing-update
  // compute — repeated with a barrier between iterations. Rank 0
  // samples the global allocation counter at each barrier: the first
  // iterations warm frame-arena size classes, mailbox slots, histogram
  // rows and the payload free list; the tail must be exactly flat.
  NxMachine m(proc::touchstone_delta().with_nodes(6));  // 2x3 mesh
  constexpr int kIters = 6;
  std::array<std::uint64_t, kIters> samples{};
  m.run([&samples](NxContext& ctx) -> sim::Task<> {
    Group world = Group::world(ctx);
    // 2x3 grid communicators, mirroring the LU row/column groups.
    const int prow = ctx.rank() / 3;
    const int pcol = ctx.rank() % 3;
    Group rowg({prow * 3, prow * 3 + 1, prow * 3 + 2}, 1 + prow);
    Group colg({pcol, pcol + 3}, 3 + pcol);
    for (int it = 0; it < kIters; ++it) {
      co_await barrier(ctx, world);
      if (ctx.rank() == 0)
        samples[static_cast<std::size_t>(it)] =
            g_heap_allocs.load(std::memory_order_relaxed);
      Payload cand;  // modeled pivot candidate: shape only, no values
      Message red = co_await allreduce(ctx, colg, ReduceOp::MaxAbsLoc,
                                       doubles_bytes(2), cand);
      (void)red;
      Payload piv;
      if (pcol == 0) piv = Payload::sized(16);
      Message pm =
          co_await bcast(ctx, rowg, prow * 3, doubles_bytes(16), piv);
      (void)pm;
      Payload lpanel;
      Message lm = co_await bcast(ctx, rowg, prow * 3, 4096, lpanel);
      (void)lm;
      Payload ublock;
      Message um = co_await bcast(ctx, colg, pcol, 2048, ublock);
      (void)um;
      const int partner = prow == 0 ? ctx.rank() + 3 : ctx.rank() - 3;
      Payload rowseg = Payload::sized(64);
      co_await ctx.send(partner, 50, 512, rowseg);
      Message got = co_await ctx.recv(partner, 50);
      (void)got;
      co_await ctx.compute(proc::Kernel::Gemm, 64, 64, 16);
    }
  });
  EXPECT_EQ(samples[kIters - 2] - samples[kIters - 3], 0u)
      << "allocations in iteration " << kIters - 3;
  EXPECT_EQ(samples[kIters - 1] - samples[kIters - 2], 0u)
      << "allocations in iteration " << kIters - 2;
}

}  // namespace
}  // namespace hpccsim::nx
