#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "sim/comm.hpp"

namespace picpar::sim {
namespace {

TEST(PointToPoint, SendRecvValue) {
  Machine m(2, CostModel::zero());
  m.run([](Comm& c) {
    if (c.rank() == 0) c.send_value(1, 5, 123);
    if (c.rank() == 1) {
      EXPECT_EQ(c.recv_value<int>(0, 5), 123);
    }
  });
}

TEST(PointToPoint, VectorPayloadRoundTrips) {
  Machine m(2, CostModel::zero());
  m.run([](Comm& c) {
    std::vector<double> data{1.5, -2.5, 3.25};
    if (c.rank() == 0) c.send(1, 1, data);
    if (c.rank() == 1) {
      EXPECT_EQ(c.recv<double>(0, 1), data);
    }
  });
}

TEST(PointToPoint, EmptyMessageDelivered) {
  Machine m(2, CostModel::zero());
  m.run([](Comm& c) {
    if (c.rank() == 0) c.send(1, 1, std::vector<int>{});
    if (c.rank() == 1) {
      EXPECT_TRUE(c.recv<int>(0, 1).empty());
    }
  });
}

TEST(Payload, FilledOnceAndShared) {
  const double v[3] = {1.5, -2.5, 3.25};
  int fills = 0;
  const Payload p(sizeof v, [&](std::byte* out) {
    ++fills;
    std::memcpy(out, v, sizeof v);
  });
  const Payload copy = p;  // shares the block
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(copy.data(), p.data());
  ASSERT_EQ(copy.size(), sizeof v);
  EXPECT_EQ(std::memcmp(copy.data(), v, sizeof v), 0);
  EXPECT_EQ(p.copy().size(), sizeof v);
  EXPECT_EQ(Payload().size(), 0u);
}

TEST(Payload, DerivedValueIsDestroyedOnceAfterItsLastHolder) {
  // Copies of one payload are taken, derived from and dropped on several
  // threads; the value is made once and destroyed once, when the last
  // pointer to it goes, after every payload copy is gone.
  struct Sum {
    long value;
    std::atomic<int>* destroyed;
    ~Sum() { destroyed->fetch_add(1); }
  };
  std::atomic<int> made{0};
  std::atomic<int> destroyed{0};
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const Sum>> kept(kThreads);
  std::vector<std::thread> threads;
  {
    const Payload original(4 * sizeof(int), [](std::byte* out) {
      const int v[4] = {1, 2, 3, 4};
      std::memcpy(out, v, sizeof v);
    });
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t, mine = original] {
        for (int i = 0; i < 2000; ++i) {
          const Payload held = mine;
          auto sum = held.derive<Sum>([&] {
            made.fetch_add(1);
            int v[4] = {};
            std::memcpy(v, held.data(), sizeof v);
            return Sum{v[0] + v[1] + v[2] + v[3], &destroyed};
          });
          EXPECT_EQ(sum->value, 10);
          kept[static_cast<std::size_t>(t)] = std::move(sum);
        }
      });
  }  // the original goes while the threads still hold copies
  for (auto& th : threads) th.join();
  EXPECT_EQ(made.load(), 1);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(destroyed.load(), 0);
    kept[static_cast<std::size_t>(t)].reset();
  }
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(PointToPoint, FifoOrderPerSenderAndTag) {
  Machine m(2, CostModel::zero());
  m.run([](Comm& c) {
    if (c.rank() == 0)
      for (int i = 0; i < 10; ++i) c.send_value(1, 3, i);
    if (c.rank() == 1) {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(c.recv_value<int>(0, 3), i);
    }
  });
}

TEST(PointToPoint, TagMatchingSkipsOtherTags) {
  Machine m(2, CostModel::zero());
  m.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 7, 70);
      c.send_value(1, 8, 80);
    }
    if (c.rank() == 1) {
      EXPECT_EQ(c.recv_value<int>(0, 8), 80);  // later message, earlier tag 8
      EXPECT_EQ(c.recv_value<int>(0, 7), 70);
    }
  });
}

TEST(PointToPoint, AnySourceReportsActualSender) {
  Machine m(3, CostModel::zero());
  m.run([](Comm& c) {
    if (c.rank() != 0) c.send_value(0, 1, c.rank());
    if (c.rank() == 0) {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int src = -1;
        auto v = c.recv<int>(kAnySource, 1, &src);
        EXPECT_EQ(v[0], src);
        seen += src;
      }
      EXPECT_EQ(seen, 3);  // ranks 1 and 2
    }
  });
}

TEST(PointToPoint, AnyTagMatchesFirstAvailable) {
  Machine m(2, CostModel::zero());
  m.run([](Comm& c) {
    if (c.rank() == 0) c.send_value(1, 99, 1);
    if (c.rank() == 1) {
      auto msg = c.recv_msg(0, kAnyTag);
      EXPECT_EQ(msg.tag, 99);
    }
  });
}

TEST(PointToPoint, SelfSendIsDeliverable) {
  Machine m(1, CostModel::zero());
  m.run([](Comm& c) {
    c.send_value(0, 1, 42);
    EXPECT_EQ(c.recv_value<int>(0, 1), 42);
  });
}

TEST(PointToPoint, BadDestinationThrows) {
  Machine m(2, CostModel::zero());
  EXPECT_THROW(m.run([](Comm& c) { c.send_value(5, 1, 0); }),
               std::out_of_range);
}

TEST(TagSpace, UserSendOnReservedTagThrows) {
  // Negative tags are the collectives' channel; letting user traffic onto
  // them can steal protocol messages. The invariant is checked, not just
  // documented.
  Machine m(2, CostModel::zero());
  EXPECT_THROW(
      m.run([](Comm& c) {
        if (c.rank() == 0) c.send_value(1, -3, 0);  // throws before enqueue
      }),
      std::invalid_argument);
}

TEST(TagSpace, UserExplicitReceiveOnReservedTagThrows) {
  Machine m(2, CostModel::zero());
  EXPECT_THROW(m.run([](Comm& c) {
                 if (c.rank() == 1) (void)c.recv<int>(0, -200);
               }),
               std::invalid_argument);
}

TEST(TagSpace, WildcardTagReceiveIsAllowed) {
  // kAnyTag is negative but is the wildcard, not a reserved channel.
  Machine m(2, CostModel::zero());
  m.run([](Comm& c) {
    if (c.rank() == 0) c.send_value(1, 0, 7);
    if (c.rank() == 1) {
      EXPECT_EQ(c.recv_value<int>(kAnySource, kAnyTag), 7);
    }
  });
}

TEST(TagSpace, CollectivesMayUseReservedTagsInternally) {
  // The strict check exempts traffic inside a collective scope; every
  // collective keeps working under the default strict machine.
  Machine m(4, CostModel::zero());
  m.run([](Comm& c) {
    c.barrier();
    EXPECT_EQ(c.allreduce_sum<int>(1), c.size());
    EXPECT_EQ(c.bcast_value<int>(c.rank() == 0 ? 5 : 0, 0), 5);
  });
}

TEST(TagSpace, StrictCheckCanBeTradedForAnalysis) {
  // set_strict_tags(false) downgrades the throw so the analyzer can record
  // the violation with provenance instead (see tests/analysis).
  Machine m(2, CostModel::zero());
  m.set_strict_tags(false);
  m.run([](Comm& c) {
    if (c.rank() == 0) c.send_value(1, -3, 9);
    if (c.rank() == 1) {
      EXPECT_EQ(c.recv_value<int>(0, kAnyTag), 9);
    }
  });
}

TEST(Machine, DeadlockDetected) {
  Machine m(2, CostModel::zero());
  EXPECT_THROW(m.run([](Comm& c) { (void)c.recv_msg(); }), DeadlockError);
}

TEST(Machine, PartialDeadlockDetected) {
  // Rank 0 finishes; rank 1 waits forever.
  Machine m(2, CostModel::zero());
  EXPECT_THROW(m.run([](Comm& c) {
                 if (c.rank() == 1) (void)c.recv_msg(0, 1);
               }),
               DeadlockError);
}

TEST(Machine, RankExceptionPropagates) {
  Machine m(4, CostModel::zero());
  EXPECT_THROW(m.run([](Comm& c) {
                 if (c.rank() == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
}

TEST(Machine, ZeroRanksRejected) {
  EXPECT_THROW(Machine(0, CostModel::zero()), std::invalid_argument);
}

TEST(Machine, ReusableForSequentialRuns) {
  Machine m(3, CostModel::zero());
  for (int round = 0; round < 3; ++round) {
    auto res = m.run([](Comm& c) { c.barrier(); });
    EXPECT_EQ(res.ranks.size(), 3u);
  }
}

TEST(Machine, RunReturnsPerRankReports) {
  Machine m(4, CostModel::zero());
  auto res = m.run([](Comm& c) { c.charge(1.0 * (c.rank() + 1)); });
  ASSERT_EQ(res.ranks.size(), 4u);
  EXPECT_DOUBLE_EQ(res.makespan(), 4.0);
  EXPECT_DOUBLE_EQ(res.max_compute(), 4.0);
  EXPECT_DOUBLE_EQ(res.overhead(), 0.0);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine m(8, CostModel::cm5());
    auto res = m.run([](Comm& c) {
      for (int i = 0; i < 5; ++i) {
        auto v = c.allgather<int>(c.rank() * i);
        c.charge_ops(static_cast<std::uint64_t>(v[0] + 10));
        c.barrier();
      }
    });
    return res.makespan();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace picpar::sim
