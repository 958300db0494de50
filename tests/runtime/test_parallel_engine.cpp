// Several worker threads: scheduling, commit safety, stall resolution and
// worker blocks. The deeper program-level equivalence fixtures live in
// test_mode_equivalence.cpp; this file exercises the engine mechanics.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "worker_counts.hpp"

namespace picpar {
namespace {

using sim::Comm;
using sim::CostModel;
using sim::Machine;
using testing::run_at_worker_counts;

void ring_program(Comm& c) {
  const int n = c.size();
  const int next = (c.rank() + 1) % n;
  const int prev = (c.rank() + n - 1) % n;
  for (int round = 0; round < 5; ++round) {
    c.charge_ops(100 + static_cast<std::uint64_t>(c.rank()) * 7);
    std::vector<int> data{c.rank(), round};
    c.send(next, 10 + round, data);
    const auto got = c.recv<int>(prev, 10 + round);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], prev);
    EXPECT_EQ(got[1], round);
  }
}

void collectives_program(Comm& c) {
  const int r = c.rank();
  c.charge_ops(static_cast<std::uint64_t>(r) * 31 + 5);
  const int sum = c.allreduce_sum(r + 1);
  EXPECT_EQ(sum, c.size() * (c.size() + 1) / 2);
  c.barrier();
  const auto all = c.allgather(r * r);
  ASSERT_EQ(static_cast<int>(all.size()), c.size());
  for (int i = 0; i < c.size(); ++i) EXPECT_EQ(all[i], i * i);
  std::vector<std::vector<int>> out(static_cast<std::size_t>(c.size()));
  for (int d = 0; d < c.size(); ++d)
    if ((r + d) % 3 == 0) out[static_cast<std::size_t>(d)] = {r, d};
  const auto in = c.all_to_many(std::move(out));
  for (int s = 0; s < c.size(); ++s) {
    if ((s + r) % 3 == 0) {
      ASSERT_EQ(in[static_cast<std::size_t>(s)].size(), 2u);
      EXPECT_EQ(in[static_cast<std::size_t>(s)][0], s);
    } else {
      EXPECT_TRUE(in[static_cast<std::size_t>(s)].empty());
    }
  }
}

/// Ring rounds that survive a fail-stop crash: survivors catch
/// PeerFailedError, agree on membership and finish on the shrunken group.
void resilient_ring(Comm& c) {
  int done = 0;
  for (;;) {
    try {
      while (done < 6) {
        const int p = c.size();
        c.send_value((c.rank() + 1) % p, 5, done);
        (void)c.recv_value<int>((c.rank() + p - 1) % p, 5);
        (void)c.allreduce_sum(c.world_rank());
        ++done;
      }
      return;
    } catch (const sim::PeerFailedError&) {
      (void)c.agree_on_membership();
      done = c.allreduce_min(done);
    }
  }
}

TEST(ParallelEngine, RingExchangeMatchesSequential) {
  run_at_worker_counts([] { return new Machine(8, CostModel::cm5()); },
                       ring_program);
}

TEST(ParallelEngine, CollectivesMatchSequential) {
  run_at_worker_counts([] { return new Machine(12, CostModel::cm5()); },
                       collectives_program);
}

// p = 13 is prime: no worker count divides it, so every block split has
// blocks of unequal size.
TEST(ParallelEngine, RingExchangeAtP13) {
  run_at_worker_counts([] { return new Machine(13, CostModel::cm5()); },
                       ring_program);
}

TEST(ParallelEngine, CollectivesAtP13) {
  run_at_worker_counts([] { return new Machine(13, CostModel::cm5()); },
                       collectives_program);
}

TEST(ParallelEngine, CrashAndMembershipAtP13) {
  const auto run = run_at_worker_counts(
      [] {
        sim::FaultConfig cfg;
        cfg.crash_schedule = {{6, 3e-4}, {12, 6e-4}};
        return new Machine(13, CostModel::cm5(), cfg);
      },
      resilient_ring);
  ASSERT_EQ(run.crashes.size(), 2u);
  EXPECT_GE(run.epochs, 1);
}

// Wildcard receives must deliver in virtual-arrival order, not in the
// order worker threads happen to enqueue. Senders are given staggered
// compute delays so their messages' virtual arrivals are a permutation of
// the send order; the receiver asserts the exact permutation.
TEST(ParallelEngine, WildcardDeliversInVirtualTimeOrder) {
  // delay_units[r] for sender rank r (receiver is rank 0). Larger delay =
  // later virtual arrival even if the OS schedules that sender first.
  const std::vector<int> delay_units = {0, 400, 100, 300, 200};
  auto program = [&](Comm& c) {
    const int n = c.size();
    if (c.rank() == 0) {
      std::vector<int> order;
      for (int i = 1; i < n; ++i) {
        int src = -1;
        (void)c.recv<int>(sim::kAnySource, 7, &src);
        order.push_back(src);
      }
      // Expected: ascending virtual arrival = ascending delay.
      EXPECT_EQ(order, (std::vector<int>{2, 4, 3, 1}));
    } else {
      c.charge_ops(static_cast<std::uint64_t>(
          delay_units[static_cast<std::size_t>(c.rank())]));
      c.send_value(0, 7, c.rank());
    }
  };
  run_at_worker_counts([] { return new Machine(5, CostModel::cm5()); },
                       program);
}

// Two senders whose messages arrive at the exact same virtual time: the
// (arrival, src) tie-break must pick the lower source first in both modes.
TEST(ParallelEngine, ArrivalTiesBreakBySourceRank) {
  auto program = [](Comm& c) {
    if (c.rank() == 0) {
      int first = -1, second = -1;
      (void)c.recv<int>(sim::kAnySource, 3, &first);
      (void)c.recv<int>(sim::kAnySource, 3, &second);
      EXPECT_EQ(first, 1);
      EXPECT_EQ(second, 2);
    } else {
      c.send_value(0, 3, c.rank());  // same clock, same size => same arrival
    }
  };
  run_at_worker_counts([] { return new Machine(3, CostModel::cm5()); },
                       program);
}

// A receive whose candidate is unsafe under the lower-bound rule (a third
// rank's clock stays below the candidate arrival) must stall until global
// quiescence, then force-commit the minimal candidate instead of
// deadlocking. Rank 2's wildcard receive sees rank 0's message, but rank 1
// is parked at clock 0 and could (for all the rule knows) still send
// something earlier — only the stall resolution can break the tie.
TEST(ParallelEngine, StallForceCommitsMinimalCandidate) {
  auto program = [](Comm& c) {
    switch (c.rank()) {
      case 0: {
        c.charge(1.0);  // push arrival far above rank 1's reachable bound
        c.send_value(2, 5, 42);
        const int ack = c.recv_value<int>(2, 6);
        EXPECT_EQ(ack, 42);
        break;
      }
      case 1: {
        const int ack = c.recv_value<int>(2, 6);  // parked at clock 0
        EXPECT_EQ(ack, 42);
        break;
      }
      case 2: {
        int src = -1;
        const auto v = c.recv<int>(sim::kAnySource, 5, &src);
        EXPECT_EQ(src, 0);
        c.send_value(0, 6, v[0]);
        c.send_value(1, 6, v[0]);
        break;
      }
      default:
        break;
    }
  };
  run_at_worker_counts([] { return new Machine(3, CostModel::cm5()); },
                       program);
}

TEST(ParallelEngine, ManyRanksFewWorkers) {
  auto program = [](Comm& c) {
    const int r = c.rank();
    c.charge_ops(static_cast<std::uint64_t>((r * 37) % 11));
    const int total = c.allreduce_sum(1);
    EXPECT_EQ(total, c.size());
    if (r % 2 == 0 && r + 1 < c.size()) c.send_value(r + 1, 1, r);
    if (r % 2 == 1) {
      EXPECT_EQ(c.recv_value<int>(r - 1, 1), r - 1);
    }
    c.barrier();
  };
  run_at_worker_counts([] { return new Machine(16, CostModel::cm5()); },
                       program);
}

TEST(ParallelEngine, RepeatedRunsOnOneMachineStayIdentical) {
  auto program = [](Comm& c) {
    const int s = c.allreduce_sum(c.rank());
    EXPECT_EQ(s, c.size() * (c.size() - 1) / 2);
  };
  Machine m(6, CostModel::cm5());
  m.set_workers(4);
  const auto first = m.run(program);
  const auto second = m.run(program);
  picpar::testing::expect_identical(first, second);

  // And going back to one worker on the same machine still matches.
  m.set_workers(1);
  picpar::testing::expect_identical(first, m.run(program));
}

TEST(ParallelEngine, RankErrorPropagates) {
  Machine m(4, CostModel::cm5());
  m.set_workers(2);
  EXPECT_THROW(m.run([](Comm& c) {
    if (c.rank() == 2) throw std::runtime_error("boom");
    if (c.rank() == 3) c.send_value(2, 1, 1);  // unreceived; harmless
  }),
               std::runtime_error);
}

// Worker w runs the contiguous block [w*p/W, (w+1)*p/W) on one thread for
// the whole run, and the first block runs on the thread that called run().
TEST(ParallelEngine, BlocksStayOnOneThreadEach) {
  constexpr int p = 13;
  for (const int w : picpar::testing::kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    std::vector<std::set<std::thread::id>> seen(p);
    std::mutex mu;
    auto note = [&](int r) {
      std::lock_guard<std::mutex> lk(mu);
      seen[static_cast<std::size_t>(r)].insert(std::this_thread::get_id());
    };
    Machine m(p, CostModel::cm5());
    m.set_workers(w);
    m.run([&](Comm& c) {
      note(c.rank());
      for (int i = 0; i < 3; ++i) {
        c.send_value((c.rank() + 1) % p, i, i);
        (void)c.recv_value<int>((c.rank() + p - 1) % p, i);
        note(c.rank());
      }
      c.barrier();
      note(c.rank());
    });
    std::set<std::thread::id> threads;
    for (int k = 0; k < w; ++k) {
      const int lo = p * k / w;
      const int hi = p * (k + 1) / w;
      const std::set<std::thread::id>& first = seen[static_cast<std::size_t>(lo)];
      ASSERT_EQ(first.size(), 1u) << "rank " << lo;
      for (int r = lo; r < hi; ++r)
        EXPECT_EQ(seen[static_cast<std::size_t>(r)], first) << "rank " << r;
      threads.insert(*first.begin());
    }
    EXPECT_EQ(threads.size(), static_cast<std::size_t>(w));
    EXPECT_EQ(*seen[0].begin(), std::this_thread::get_id());
  }
}

}  // namespace
}  // namespace picpar
