#include "core/ghost_exchange.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "sfc/hilbert.hpp"

namespace picpar::core {
namespace {

using mesh::FieldState;
using mesh::GridDesc;
using mesh::GridPartition;
using mesh::LocalGrid;

class GhostPolicies : public ::testing::TestWithParam<DedupPolicy> {};

TEST_P(GhostPolicies, DepositSlotDeduplicates) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  LocalGrid lg(part, 0);
  GhostExchange ge(lg, GetParam());
  ge.begin_iteration();
  // Node owned by rank 1.
  const auto gid = g.node_id(7, 0);
  double* a = ge.deposit_slot(gid);
  a[0] += 1.0;
  double* b = ge.deposit_slot(gid);
  b[0] += 2.0;
  EXPECT_EQ(a, b) << "same node must map to the same accumulator";
  EXPECT_EQ(ge.entries(), 1u);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
}

TEST_P(GhostPolicies, EntriesResetEachIteration) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  LocalGrid lg(part, 0);
  GhostExchange ge(lg, GetParam());
  ge.begin_iteration();
  ge.deposit_slot(g.node_id(7, 0))[0] = 5.0;
  EXPECT_EQ(ge.entries(), 1u);
  ge.begin_iteration();
  EXPECT_EQ(ge.entries(), 0u);
  // A fresh slot must start zeroed.
  EXPECT_DOUBLE_EQ(ge.deposit_slot(g.node_id(7, 0))[0], 0.0);
}

TEST_P(GhostPolicies, FlushDeliversSumsToOwner) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  const auto policy = GetParam();
  sim::Machine m(4, sim::CostModel::zero());
  m.run([&](sim::Comm& c) {
    LocalGrid lg(part, c.rank());
    FieldState f(lg);
    GhostExchange ge(lg, policy);
    ge.begin_iteration();
    // Every rank deposits 1.0 of rho to node (0, 0), owned by rank 0.
    const auto target = g.node_id(0, 0);
    if (!lg.owns(target)) {
      double* slot = ge.deposit_slot(target);
      slot[3] += 1.0;
    } else {
      f.rho[lg.local_of(target)] += 1.0;
    }
    ge.flush_scatter(c, f);
    if (lg.owns(target)) {
      EXPECT_DOUBLE_EQ(f.rho[lg.local_of(target)], 4.0)
          << "3 remote + 1 local contribution";
    }
  });
}

TEST_P(GhostPolicies, FetchReturnsOwnersFieldValues) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  const auto policy = GetParam();
  sim::Machine m(4, sim::CostModel::zero());
  m.run([&](sim::Comm& c) {
    LocalGrid lg(part, c.rank());
    FieldState f(lg);
    // Owner encodes gid into its fields.
    for (std::size_t l = 0; l < lg.owned(); ++l) {
      f.ex[l] = static_cast<double>(lg.gid_of(l));
      f.bz[l] = -static_cast<double>(lg.gid_of(l));
    }
    GhostExchange ge(lg, policy);
    ge.begin_iteration();
    // Each rank asks for a node in every other quadrant's interior.
    std::vector<std::uint64_t> wanted;
    for (auto [x, y] : {std::pair{2u, 2u}, {6u, 2u}, {2u, 6u}, {6u, 6u}}) {
      const auto gid = g.node_id(x, y);
      if (!lg.owns(gid)) {
        ge.deposit_slot(gid);
        wanted.push_back(gid);
      }
    }
    ge.flush_scatter(c, f);
    ge.fetch_fields(c, f);
    for (const auto gid : wanted) {
      const double* s = ge.field_slot(gid);
      ASSERT_NE(s, nullptr);
      EXPECT_DOUBLE_EQ(s[0], static_cast<double>(gid));   // ex
      EXPECT_DOUBLE_EQ(s[5], -static_cast<double>(gid));  // bz
    }
  });
}

TEST_P(GhostPolicies, FieldSlotNullForUntouchedNode) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  LocalGrid lg(part, 0);
  GhostExchange ge(lg, GetParam());
  ge.begin_iteration();
  EXPECT_EQ(ge.field_slot(g.node_id(7, 7)), nullptr);
}

TEST_P(GhostPolicies, OneMessagePerDestination) {
  // Communication coalescing: many deposits to one owner, one message.
  GridDesc g(16, 16);
  const auto part = GridPartition::block(g, 2, 1);
  const auto policy = GetParam();
  sim::Machine m(2, sim::CostModel::zero());
  m.run([&](sim::Comm& c) {
    LocalGrid lg(part, c.rank());
    FieldState f(lg);
    GhostExchange ge(lg, policy);
    ge.begin_iteration();
    if (c.rank() == 0) {
      // Deposit to ten distinct nodes all owned by rank 1.
      for (std::uint32_t y = 0; y < 10; ++y)
        ge.deposit_slot(g.node_id(12, y))[3] += 1.0;
    }
    const auto before = c.stats().total().msgs_sent;
    ge.flush_scatter(c, f);
    const auto sent = c.stats().total().msgs_sent - before;
    if (c.rank() == 0) {
      // One data message; the count-table allgather adds log2(2) = 1 more.
      EXPECT_LE(sent, 3u);
    }
  });
}

TEST_P(GhostPolicies, ResolveNamesOwnedIndexOrOwnedPlusSlot) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  LocalGrid lg(part, 0);
  GhostExchange ge(lg, GetParam());
  ge.begin_iteration();
  EXPECT_EQ(ge.owned(), lg.owned());
  std::uint32_t ghosts = 0;
  for (std::uint64_t gid = 0; gid < g.nodes(); ++gid) {
    const auto d = ge.resolve(gid);
    if (lg.owns(gid)) {
      EXPECT_EQ(d, lg.local_of(gid)) << "gid " << gid;
      EXPECT_EQ(ge.slot_of(gid), GhostExchange::kNoSlot) << "gid " << gid;
    } else {
      // Slots are created in first-touch order.
      EXPECT_EQ(d, ge.owned() + ghosts) << "gid " << gid;
      EXPECT_EQ(ge.slot_of(gid), ghosts);
      EXPECT_EQ(ge.deposit_slot_index(gid), ghosts);
      EXPECT_EQ(ge.resolve(gid), d);
      ++ghosts;
    }
  }
  EXPECT_EQ(ge.entries(), ghosts);
  EXPECT_EQ(ge.entries(), g.nodes() - lg.owned());
}

TEST_P(GhostPolicies, OwnedEntriesSurviveIterations) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  LocalGrid lg(part, 0);
  GhostExchange ge(lg, GetParam());
  for (int it = 0; it < 10; ++it) {
    ge.begin_iteration();
    // Touch the other ranks' nodes from a different start each time, so
    // every iteration creates and resets a different slot order.
    std::uint32_t ghosts = 0;
    for (std::uint64_t k = 0; k < g.nodes(); ++k) {
      const std::uint64_t gid = (k + 7 * static_cast<std::uint64_t>(it)) %
                                g.nodes();
      if (lg.owns(gid)) continue;
      ge.deposit_data(ge.resolve(gid) - ge.owned())[0] += 1.0;
      ++ghosts;
    }
    ASSERT_EQ(ge.entries(), ghosts) << "iteration " << it;
    for (std::size_t l = 0; l < lg.owned(); ++l) {
      const auto gid = lg.gid_of(l);
      ASSERT_EQ(ge.resolve(gid), l) << "iteration " << it << " gid " << gid;
      ASSERT_EQ(ge.slot_of(gid), GhostExchange::kNoSlot)
          << "iteration " << it << " gid " << gid;
    }
    ASSERT_EQ(ge.entries(), ghosts) << "owned nodes took a slot";
  }
}

TEST_P(GhostPolicies, DepositSlotIndexRejectsOwnedNode) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  LocalGrid lg(part, 0);
  GhostExchange ge(lg, GetParam());
  ge.begin_iteration();
  const auto gid = lg.gid_of(3);
  EXPECT_THROW(ge.deposit_slot_index(gid), std::logic_error);
  EXPECT_THROW(ge.deposit_slot(gid), std::logic_error);
  EXPECT_EQ(ge.entries(), 0u);
  // The rejected call left the owned entry as it was, also after a reset.
  ge.begin_iteration();
  EXPECT_EQ(ge.resolve(gid), 3u);
  EXPECT_EQ(ge.slot_of(gid), GhostExchange::kNoSlot);
  EXPECT_EQ(ge.entries(), 0u);
}

TEST_P(GhostPolicies, RecordHoldsUntilTheNextIteration) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  LocalGrid lg(part, 0);
  GhostExchange ge(lg, GetParam());
  EXPECT_THROW(ge.recorded(0), std::logic_error) << "nothing recorded yet";
  ge.begin_iteration();
  std::uint32_t* rec = ge.record(3);
  for (std::uint32_t k = 0; k < 12; ++k) rec[k] = k;
  ASSERT_EQ(ge.recorded(3), rec);
  EXPECT_EQ(ge.recorded(3)[11], 11u);
  EXPECT_THROW(ge.recorded(2), std::logic_error);
  EXPECT_THROW(ge.recorded(4), std::logic_error);
  ge.begin_iteration();
  EXPECT_THROW(ge.recorded(3), std::logic_error);
  ge.record(0);
  EXPECT_NO_THROW(ge.recorded(0));
}

TEST_P(GhostPolicies, MemoryBytesCountsTheRecord) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  LocalGrid lg(part, 0);
  GhostExchange ge(lg, GetParam());
  ge.begin_iteration();
  const std::size_t before = ge.memory_bytes();
  ge.record(1000);
  const std::size_t after = ge.memory_bytes();
  EXPECT_EQ(after - before, 4 * 1000 * sizeof(std::uint32_t));
  // The capacity persists: a smaller record and a new iteration reuse it.
  ge.record(10);
  EXPECT_EQ(ge.memory_bytes(), after);
  ge.begin_iteration();
  EXPECT_EQ(ge.memory_bytes(), after);
}

INSTANTIATE_TEST_SUITE_P(Policies, GhostPolicies,
                         ::testing::Values(DedupPolicy::kHash,
                                           DedupPolicy::kDirect),
                         [](const ::testing::TestParamInfo<DedupPolicy>& i) {
                           return dedup_policy_name(i.param);
                         });

TEST(GhostExchange, HashAndDirectProduceIdenticalResults) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  auto run_with = [&](DedupPolicy pol) {
    std::vector<double> rho_out(g.nodes(), 0.0);
    sim::Machine m(4, sim::CostModel::zero());
    m.run([&](sim::Comm& c) {
      LocalGrid lg(part, c.rank());
      FieldState f(lg);
      GhostExchange ge(lg, pol);
      ge.begin_iteration();
      for (std::uint64_t gid = 0; gid < g.nodes(); gid += 3) {
        if (lg.owns(gid))
          f.rho[lg.local_of(gid)] += 0.5;
        else
          ge.deposit_slot(gid)[3] += 0.5;
      }
      ge.flush_scatter(c, f);
      for (std::size_t l = 0; l < lg.owned(); ++l)
        rho_out[static_cast<std::size_t>(lg.gid_of(l))] = f.rho[l];
    });
    return rho_out;
  };
  const auto a = run_with(DedupPolicy::kHash);
  const auto b = run_with(DedupPolicy::kDirect);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// Randomized multi-iteration equivalence (irregular deposit patterns):
// kHash and kDirect must agree on every owner-side sum, every fetched
// field value, and the exact message traffic — the dedup policy is a pure
// lookup-structure choice and must never leak into results or messaging.
// Runs several iterations per seed so the generation-stamped hash reset
// and the kDirect touched-slot reset are both exercised across reuse.
TEST(GhostExchange, RandomizedHashDirectEquivalence) {
  GridDesc g(16, 12);
  const auto part = GridPartition::block(g, 2, 2);
  constexpr int kIters = 4;

  struct Observed {
    std::vector<double> rho;      // owner-side sums, per iteration
    std::vector<double> fetched;  // ghost-side fetched fields
    std::uint64_t msgs_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t msgs_recv = 0;
  };

  for (std::uint64_t seed : {1u, 7u, 1234u}) {
    auto run = [&](DedupPolicy pol) {
      std::vector<Observed> per_rank(4);
      sim::Machine m(4, sim::CostModel::zero());
      m.run([&](sim::Comm& c) {
        Observed& obs = per_rank[static_cast<std::size_t>(c.rank())];
        LocalGrid lg(part, c.rank());
        FieldState f(lg);
        GhostExchange ge(lg, pol);
        std::mt19937_64 rng(seed * 1000003u +
                            static_cast<std::uint64_t>(c.rank()));
        std::uniform_int_distribution<std::uint64_t> pick(0, g.nodes() - 1);
        std::uniform_real_distribution<double> val(-1.0, 1.0);
        for (int it = 0; it < kIters; ++it) {
          ge.begin_iteration();
          std::fill(f.rho.begin(), f.rho.end(), 0.0);
          std::vector<std::uint64_t> ghost_gids;
          const std::uint64_t base = pick(rng);
          for (int k = 0; k < 200; ++k) {
            const std::uint64_t gid =
                (base + static_cast<std::uint64_t>(k % 17)) % g.nodes();
            const double v = val(rng);
            if (lg.owns(gid)) {
              f.rho[lg.local_of(gid)] += v;
            } else {
              ge.deposit_slot(gid)[3] += v;
              ghost_gids.push_back(gid);
            }
          }
          for (int k = 0; k < 40; ++k) {
            const std::uint64_t gid = pick(rng);
            const double v = val(rng);
            if (lg.owns(gid)) {
              f.rho[lg.local_of(gid)] += v;
            } else {
              ge.deposit_slot(gid)[3] += v;
              ghost_gids.push_back(gid);
            }
          }
          for (std::size_t l = 0; l < lg.owned(); ++l)
            f.ex[l] = static_cast<double>(lg.gid_of(l)) + 0.25 * it;
          ge.flush_scatter(c, f);
          ge.fetch_fields(c, f);
          for (std::size_t l = 0; l < lg.owned(); ++l)
            obs.rho.push_back(f.rho[l]);
          for (const auto gid : ghost_gids) {
            const double* s = ge.field_slot(gid);
            obs.fetched.push_back(s ? s[0] : -1e300);
          }
        }
        const auto t = c.stats().total();
        obs.msgs_sent = t.msgs_sent;
        obs.bytes_sent = t.bytes_sent;
        obs.msgs_recv = t.msgs_recv;
      });
      return per_rank;
    };
    const auto a = run(DedupPolicy::kHash);
    const auto b = run(DedupPolicy::kDirect);
    for (int r = 0; r < 4; ++r) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " rank=" + std::to_string(r));
      const auto& x = a[static_cast<std::size_t>(r)];
      const auto& y = b[static_cast<std::size_t>(r)];
      EXPECT_EQ(x.msgs_sent, y.msgs_sent);
      EXPECT_EQ(x.bytes_sent, y.bytes_sent);
      EXPECT_EQ(x.msgs_recv, y.msgs_recv);
      ASSERT_EQ(x.rho.size(), y.rho.size());
      for (std::size_t i = 0; i < x.rho.size(); ++i)
        EXPECT_EQ(x.rho[i], y.rho[i]) << "rho[" << i << "]";
      ASSERT_EQ(x.fetched.size(), y.fetched.size());
      for (std::size_t i = 0; i < x.fetched.size(); ++i)
        EXPECT_EQ(x.fetched[i], y.fetched[i]) << "fetched[" << i << "]";
    }
  }
}

// The hash table's generation-stamped reset plus the routing scratch must
// behave like a cold table on every iteration: entries from iteration k
// must be invisible in iteration k+1 even when the same gids reappear, and
// the table must survive growth (many distinct gids -> several rehashes).
TEST(GhostExchange, HashGenerationResetSurvivesGrowthAndReuse) {
  GridDesc g(64, 64);
  const auto part = GridPartition::block(g, 2, 1);
  LocalGrid lg(part, 0);
  GhostExchange ge(lg, DedupPolicy::kHash);
  for (int it = 0; it < 3; ++it) {
    ge.begin_iteration();
    // >1000 distinct ghost nodes forces repeated growth past the initial
    // table size; interleave duplicates to exercise hit paths mid-growth.
    std::uint32_t created = 0;
    for (std::uint32_t y = 0; y < 60; ++y)
      for (std::uint32_t x = 40; x < 60; ++x) {
        const auto gid = g.node_id(x, y);
        const auto slot = ge.deposit_slot_index(gid);
        const auto again = ge.deposit_slot_index(gid);
        EXPECT_EQ(slot, again);
        ge.deposit_data(slot)[0] += 1.0;
        ++created;
      }
    EXPECT_EQ(ge.entries(), created);
    // Every accumulator holds exactly this iteration's sum — stale slots
    // from the previous iteration must not alias.
    for (std::uint32_t s = 0; s < created; ++s)
      EXPECT_DOUBLE_EQ(ge.deposit_data(s)[0], 1.0) << "slot " << s;
  }
}

// memory_bytes() must charge for the transient message staging too: the
// scatter send tables and gather reply buffers are live at the rank's peak,
// and an earlier version of the accounting missed them (the budget report
// undercounted exactly when the exchange was busiest). Pin the fold-in via
// the high-water mark: flushing a non-empty exchange must raise the
// reported bytes, and the mark never decays across iterations.
TEST(GhostExchange, MemoryBytesCountsStagedMessages) {
  GridDesc g(16, 16);
  const auto part = GridPartition::block(g, 2, 1);
  std::vector<std::size_t> peak(2, 0);
  sim::Machine m(2, sim::CostModel::zero());
  m.run([&](sim::Comm& c) {
    LocalGrid lg(part, c.rank());
    FieldState f(lg);
    GhostExchange ge(lg, DedupPolicy::kHash);
    ge.begin_iteration();
    if (c.rank() == 0) {
      for (std::uint32_t y = 0; y < 10; ++y)
        ge.deposit_slot(g.node_id(12, y))[3] += 1.0;
    }
    const std::size_t before = ge.memory_bytes();
    ge.flush_scatter(c, f);
    const std::size_t after_scatter = ge.memory_bytes();
    if (c.rank() == 0) {
      // The staged (gid, 4 sums) send table is part of the peak footprint.
      EXPECT_GT(after_scatter, before);
    }
    ge.fetch_fields(c, f);
    const std::size_t after_fetch = ge.memory_bytes();
    EXPECT_GE(after_fetch, after_scatter);
    // High-water semantics: a fresh iteration may free per-request scratch,
    // but the message peak persists, so the budget still charges for the
    // staging even before the next flush.
    ge.begin_iteration();
    EXPECT_GT(ge.memory_bytes(), before);
    peak[static_cast<std::size_t>(c.rank())] = after_fetch;
  });
  EXPECT_GT(peak[0], 0u);
  // The owner stages reply buffers in fetch_fields, so it carries a
  // message peak as well.
  EXPECT_GT(peak[1], 0u);
}

TEST(GhostExchange, ParsePolicyNames) {
  EXPECT_EQ(parse_dedup_policy("hash"), DedupPolicy::kHash);
  EXPECT_EQ(parse_dedup_policy("direct"), DedupPolicy::kDirect);
  EXPECT_THROW(parse_dedup_policy("bloom"), std::invalid_argument);
}

}  // namespace
}  // namespace picpar::core
