// Randomized stress tests of the simulated machine: arbitrary sparse
// communication patterns checked against directly computed expectations.
#include <gtest/gtest.h>

#include <map>

#include "sim/comm.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"

namespace picpar::sim {
namespace {

// gtest prints the raw bytes of the parameter into the test name, so the
// struct must have no padding: padding bytes are uninitialised and would
// change the name from run to run. Hence a 64-bit rank count.
struct FuzzCase {
  std::int64_t ranks;
  std::uint64_t seed;
};

class AllToManyFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(AllToManyFuzz, MatchesReferenceExchange) {
  const int ranks = static_cast<int>(GetParam().ranks);
  const auto seed = GetParam().seed;
  // Deterministically generate the full traffic matrix up front so every
  // rank (and the checker) sees the same expectation.
  picpar::Rng pattern(seed);
  std::vector<std::vector<std::vector<int>>> traffic(
      static_cast<std::size_t>(ranks));
  for (int s = 0; s < ranks; ++s) {
    traffic[static_cast<std::size_t>(s)].resize(static_cast<std::size_t>(ranks));
    for (int d = 0; d < ranks; ++d) {
      const auto len = pattern.below(5);  // 0..4 elements, often empty
      for (std::uint64_t k = 0; k < len; ++k)
        traffic[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)]
            .push_back(static_cast<int>(s * 10000 + d * 100 + static_cast<int>(k)));
    }
  }

  Machine m(ranks, CostModel::zero());
  m.run([&](Comm& c) {
    auto send = traffic[static_cast<std::size_t>(c.rank())];
    auto recv = c.all_to_many(std::move(send));
    for (int s = 0; s < ranks; ++s) {
      EXPECT_EQ(recv[static_cast<std::size_t>(s)],
                traffic[static_cast<std::size_t>(s)]
                       [static_cast<std::size_t>(c.rank())])
          << "rank " << c.rank() << " from " << s;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, AllToManyFuzz,
    ::testing::Values(FuzzCase{2, 1}, FuzzCase{3, 2}, FuzzCase{5, 3},
                      FuzzCase{8, 4}, FuzzCase{13, 5}, FuzzCase{16, 6}),
    [](const ::testing::TestParamInfo<FuzzCase>& i) {
      return "p" + std::to_string(i.param.ranks) + "s" +
             std::to_string(i.param.seed);
    });

class FaultyFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FaultyFuzz, AllToManySurvivesActiveFaultModel) {
  // Same reference exchange as AllToManyFuzz, but over a fabric that
  // jitters (reordering arrivals), duplicates and corrupts. The transport
  // must hide all of it: every payload arrives exactly once, bit-identical.
  const int ranks = static_cast<int>(GetParam().ranks);
  const auto seed = GetParam().seed;
  picpar::Rng pattern(seed);
  std::vector<std::vector<std::vector<int>>> traffic(
      static_cast<std::size_t>(ranks));
  for (int s = 0; s < ranks; ++s) {
    traffic[static_cast<std::size_t>(s)].resize(static_cast<std::size_t>(ranks));
    for (int d = 0; d < ranks; ++d) {
      const auto len = pattern.below(5);
      for (std::uint64_t k = 0; k < len; ++k)
        traffic[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)]
            .push_back(static_cast<int>(s * 10000 + d * 100 + static_cast<int>(k)));
    }
  }

  FaultConfig cfg;
  cfg.seed = seed * 1000 + 17;
  cfg.latency_jitter_prob = 0.5;
  cfg.latency_jitter_max_seconds = 1e-4;
  cfg.duplicate_prob = 0.3;
  cfg.corrupt_prob = 0.1;
  cfg.max_retries = 20;
  Machine m(ranks, CostModel::cm5(), cfg);
  const auto run = m.run([&](Comm& c) {
    // Two rounds back to back: leftover duplicates from round one must not
    // bleed into round two's matching.
    for (int round = 0; round < 2; ++round) {
      auto send = traffic[static_cast<std::size_t>(c.rank())];
      auto recv = c.all_to_many(std::move(send));
      for (int s = 0; s < ranks; ++s) {
        EXPECT_EQ(recv[static_cast<std::size_t>(s)],
                  traffic[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(c.rank())])
            << "round " << round << " rank " << c.rank() << " from " << s;
      }
    }
  });
  EXPECT_GT(run.faults_total().total(), 0u) << "fault model never fired";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, FaultyFuzz,
    ::testing::Values(FuzzCase{2, 11}, FuzzCase{3, 12}, FuzzCase{5, 13},
                      FuzzCase{8, 14}, FuzzCase{13, 15}),
    [](const ::testing::TestParamInfo<FuzzCase>& i) {
      return "p" + std::to_string(i.param.ranks) + "s" +
             std::to_string(i.param.seed);
    });

TEST(P2pFuzz, RandomPairwiseStreamsStayOrdered) {
  // Every rank sends a random-length numbered stream to every other rank;
  // receivers must see each stream complete and in order.
  const int ranks = 6;
  Machine m(ranks, CostModel::zero());
  m.run([&](Comm& c) {
    picpar::Rng rng(100 + static_cast<std::uint64_t>(c.rank()));
    std::vector<int> lens(static_cast<std::size_t>(ranks));
    // Sender decides lengths; receiver learns them via a header message.
    for (int d = 0; d < ranks; ++d) {
      if (d == c.rank()) continue;
      const int len = static_cast<int>(rng.below(20));
      c.send_value(d, 1, len);
      for (int k = 0; k < len; ++k) c.send_value(d, 2, c.rank() * 1000 + k);
    }
    for (int s = 0; s < ranks; ++s) {
      if (s == c.rank()) continue;
      const int len = c.recv_value<int>(s, 1);
      for (int k = 0; k < len; ++k)
        EXPECT_EQ(c.recv_value<int>(s, 2), s * 1000 + k);
    }
    (void)lens;
  });
}

TEST(CollectiveFuzz, RepeatedMixedCollectivesStayConsistent) {
  const int ranks = 7;
  Machine m(ranks, CostModel::cm5());
  m.run([&](Comm& c) {
    picpar::Rng rng(7);  // same stream on every rank
    for (int round = 0; round < 25; ++round) {
      switch (rng.below(5)) {
        case 0:
          c.barrier();
          break;
        case 1: {
          const int root = static_cast<int>(rng.below(ranks));
          const auto v = c.bcast_value(c.rank() == root ? round : -1, root);
          ASSERT_EQ(v, round);
          break;
        }
        case 2: {
          const auto sum = c.allreduce_sum<long>(c.rank() + round);
          ASSERT_EQ(sum, static_cast<long>(ranks) * round +
                             ranks * (ranks - 1) / 2);
          break;
        }
        case 3: {
          std::vector<int> mine(static_cast<std::size_t>(c.rank() % 3), c.rank());
          const auto cat = c.allgatherv(mine);
          std::size_t expect = 0;
          for (int r = 0; r < ranks; ++r) expect += static_cast<std::size_t>(r % 3);
          ASSERT_EQ(cat.size(), expect);
          break;
        }
        case 4: {
          const auto ex = c.exscan_sum<int>(1);
          ASSERT_EQ(ex, c.rank());
          break;
        }
      }
    }
  });
}

TEST(ClockFuzz, VirtualTimeIsMonotonicPerRank) {
  const int ranks = 5;
  Machine m(ranks, CostModel::cm5());
  m.run([&](Comm& c) {
    // The branch choice must be uniform across ranks (barrier is a
    // collective); only the charge amount may differ per rank.
    picpar::Rng branch(50);
    picpar::Rng amount(60 + static_cast<std::uint64_t>(c.rank()));
    double last = c.clock();
    for (int i = 0; i < 50; ++i) {
      if (branch.below(2) == 0) {
        c.charge(1e-6 * static_cast<double>(amount.below(100)));
      } else {
        c.barrier();
      }
      ASSERT_GE(c.clock(), last);
      last = c.clock();
    }
  });
}

}  // namespace
}  // namespace picpar::sim
