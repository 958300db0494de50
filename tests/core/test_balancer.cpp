// Weighted-balancer bounds at large p: when the rank count exceeds the
// number of weight-bearing cells, compute_bounds emits *duplicate* bounds
// (consecutive ranks sharing an upper key) — never unsorted ones — and the
// lower_bound ownership rule resolves every key to the first rank holding
// the bound, leaving the later duplicates legitimately empty. This pins the
// empty-rank behavior audited in balancer.cpp's weighted_bounds.
#include "core/balancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "sfc/hilbert.hpp"
#include "sfc/index_cache.hpp"
#include "sim/comm.hpp"

namespace picpar::core {
namespace {

using particles::ParticleArray;
using particles::ParticleRec;

constexpr std::uint64_t kMaxKey = std::numeric_limits<std::uint64_t>::max();

/// Rank that owns `key` under the partitioner's rule (partitioner.cpp
/// owner_of): first rank whose inclusive upper bound admits the key.
int owner_of(const std::vector<std::uint64_t>& bounds, std::uint64_t key) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), key);
  if (it == bounds.end()) return static_cast<int>(bounds.size()) - 1;
  return static_cast<int>(it - bounds.begin());
}

/// Run `balancer` collectively on p ranks where only the listed cells are
/// populated (`per_cell` particles each, all held by rank 0); returns the
/// agreed bounds from every rank for cross-rank comparison.
std::vector<std::vector<std::uint64_t>> bounds_on_machine(
    const BalancerPolicy& balancer, int p,
    const std::vector<std::uint64_t>& populated, int per_cell) {
  const sfc::HilbertCurve curve(8, 4);
  const sfc::IndexCache cache(curve, 8, 4);
  std::vector<std::vector<std::uint64_t>> all(static_cast<std::size_t>(p));
  sim::Machine m(p, sim::CostModel::zero());
  m.run([&](sim::Comm& c) {
    ParticleArray mine(-1.0, 1.0);
    if (c.rank() == 0) {
      for (const std::uint64_t cell : populated)
        for (int i = 0; i < per_cell; ++i) {
          ParticleRec rec;
          rec.key = cell;
          mine.push_back(rec);
        }
    }
    SortWork work;
    all[static_cast<std::size_t>(c.rank())] =
        balancer.compute_bounds(c, mine, cache, work);
  });
  return all;
}

TEST(BalancerBounds, MoreRanksThanOccupiedCells) {
  // 64 ranks, 8x4 = 32 cells, only 3 of them populated. Far more ranks
  // than weight: duplicates are forced.
  const int p = 64;
  const EulerianBalancer balancer;  // alpha = 0: particle weight only
  const std::vector<std::uint64_t> populated = {2, 9, 20};
  const auto all = bounds_on_machine(balancer, p, populated, 5);

  // Every rank derived the identical bounds (collective agreement).
  for (int r = 1; r < p; ++r) EXPECT_EQ(all[0], all[static_cast<std::size_t>(r)]);

  const auto& b = all[0];
  ASSERT_EQ(b.size(), static_cast<std::size_t>(p));
  // Non-decreasing, never unsorted — the invariant dest_rank relies on.
  for (int r = 1; r < p; ++r) EXPECT_GE(b[r], b[r - 1]) << "rank " << r;
  EXPECT_EQ(b.back(), kMaxKey);
  // With 3 occupied cells and 64 ranks the bounds must repeat.
  EXPECT_TRUE(std::adjacent_find(b.begin(), b.end()) != b.end());

  // Ownership: every populated key resolves to a valid rank, and each
  // duplicate-bound run funnels its keys to its first rank — the later
  // duplicates own empty ranges.
  std::vector<int> count(static_cast<std::size_t>(p), 0);
  for (const std::uint64_t cell : populated) {
    const int o = owner_of(b, cell);
    ASSERT_GE(o, 0);
    ASSERT_LT(o, p);
    count[static_cast<std::size_t>(o)] += 5;
  }
  for (int r = 1; r < p; ++r) {
    if (b[r] == b[r - 1]) {
      EXPECT_EQ(count[static_cast<std::size_t>(r)], 0)
          << "duplicate-bound rank " << r << " must be empty";
    }
  }
  int total = 0;
  for (const int n : count) total += n;
  EXPECT_EQ(total, 15) << "every particle owned exactly once";
}

TEST(BalancerBounds, NoParticlesAtAll) {
  // Zero total weight (eulerian alpha = 0, empty array): the walk cuts
  // every interior bound at the first cell. Degenerate but well-formed —
  // non-decreasing, all keys to rank 0, no crash.
  const int p = 16;
  const EulerianBalancer balancer;
  const auto all = bounds_on_machine(balancer, p, {}, 0);
  const auto& b = all[0];
  ASSERT_EQ(b.size(), static_cast<std::size_t>(p));
  for (int r = 1; r < p; ++r) EXPECT_GE(b[r], b[r - 1]);
  EXPECT_EQ(b.back(), kMaxKey);
  EXPECT_EQ(owner_of(b, 0), 0);
}

TEST(BalancerBounds, SfcWeightSpreadsCellsAcrossEmptyRanks) {
  // With alpha > 0 every real cell carries weight, so up to min(p, cells)
  // ranks receive non-empty ranges even with no particles; ranks beyond
  // the cell count still end as duplicates.
  const int p = 64;  // > 32 cells
  const SfcWeightedBalancer balancer(1.0);
  const auto all = bounds_on_machine(balancer, p, {}, 0);
  const auto& b = all[0];
  ASSERT_EQ(b.size(), static_cast<std::size_t>(p));
  for (int r = 1; r < p; ++r) EXPECT_GE(b[r], b[r - 1]);
  EXPECT_EQ(b.back(), kMaxKey);
  // 32 cells cannot feed 64 distinct ranges: duplicates must exist.
  EXPECT_TRUE(std::adjacent_find(b.begin(), b.end()) != b.end());
  // But more than one rank got a real range (the weight did spread).
  EXPECT_GT(std::set<std::uint64_t>(b.begin(), b.end()).size(), 2u);
}

}  // namespace
}  // namespace picpar::core
