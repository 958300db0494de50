#include "core/sort_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace picpar::core {
namespace {

using particles::ParticleArray;
using particles::ParticleRec;

ParticleRec rec(std::uint64_t key, double x = 0.0) {
  ParticleRec r;
  r.key = key;
  r.x = x;
  return r;
}

TEST(SortByKey, SortsRandomKeys) {
  ParticleArray p(-1.0, 1.0);
  picpar::Rng rng(1);
  for (int i = 0; i < 500; ++i) p.push_back(rec(rng.below(1000)));
  const auto w = sort_by_key(p);
  for (std::size_t i = 1; i < p.size(); ++i)
    EXPECT_LE(p.key[i - 1], p.key[i]);
  EXPECT_GT(w.comparisons, 0u);
  EXPECT_EQ(w.moves, 500u);
}

TEST(SortByKey, StableForEqualKeys) {
  ParticleArray p(-1.0, 1.0);
  p.push_back(rec(5, 1.0));
  p.push_back(rec(3, 2.0));
  p.push_back(rec(5, 3.0));
  p.push_back(rec(3, 4.0));
  sort_by_key(p);
  EXPECT_EQ(p.x[0], 2.0);
  EXPECT_EQ(p.x[1], 4.0);
  EXPECT_EQ(p.x[2], 1.0);
  EXPECT_EQ(p.x[3], 3.0);
}

TEST(SortByKey, EmptyAndSingleton) {
  ParticleArray p(-1.0, 1.0);
  EXPECT_EQ(sort_by_key(p).comparisons, 0u);
  p.push_back(rec(1));
  sort_by_key(p);
  EXPECT_EQ(p.size(), 1u);
}

TEST(SortRecords, AlreadySortedIsCheap) {
  std::vector<ParticleRec> v;
  for (std::uint64_t i = 0; i < 100; ++i) v.push_back(rec(i));
  const auto w = sort_records(v);
  EXPECT_EQ(w.comparisons, 99u) << "sortedness check only";
  EXPECT_EQ(w.moves, 0u) << "no sorting work on sorted input";
}

TEST(SortRecords, UnsortedPaysFullCost) {
  std::vector<ParticleRec> v;
  for (std::uint64_t i = 0; i < 100; ++i) v.push_back(rec(99 - i));
  const auto w = sort_records(v);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(),
                             [](const ParticleRec& a, const ParticleRec& b) {
                               return a.key < b.key;
                             }));
  EXPECT_GT(w.comparisons, 99u);
  EXPECT_EQ(w.moves, 100u);
}

TEST(SortRecords, EmptyIsNoop) {
  std::vector<ParticleRec> v;
  const auto w = sort_records(v);
  EXPECT_EQ(w.comparisons, 0u);
}

TEST(MergeRuns, TwoInterleavedRuns) {
  std::vector<std::vector<ParticleRec>> runs(2);
  for (std::uint64_t i = 0; i < 10; i += 2) runs[0].push_back(rec(i));
  for (std::uint64_t i = 1; i < 10; i += 2) runs[1].push_back(rec(i));
  ParticleArray p(-1.0, 1.0);
  merge_runs(runs, p);
  ASSERT_EQ(p.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(p.key[i], i);
}

TEST(MergeRuns, ManyRunsWithDuplicates) {
  picpar::Rng rng(7);
  std::vector<std::vector<ParticleRec>> runs(8);
  std::vector<std::uint64_t> all;
  for (auto& run : runs) {
    for (int i = 0; i < 50; ++i) {
      run.push_back(rec(rng.below(64)));
      all.push_back(run.back().key);
    }
    std::sort(run.begin(), run.end(),
              [](const ParticleRec& a, const ParticleRec& b) {
                return a.key < b.key;
              });
  }
  ParticleArray p(-1.0, 1.0);
  merge_runs(runs, p);
  std::sort(all.begin(), all.end());
  ASSERT_EQ(p.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(p.key[i], all[i]);
}

TEST(MergeRuns, EmptyRunsHandled) {
  std::vector<std::vector<ParticleRec>> runs(3);
  runs[1].push_back(rec(4));
  ParticleArray p(-1.0, 1.0);
  merge_runs(runs, p);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.key[0], 4u);
}

TEST(MergeRuns, ReplacesExistingContents) {
  std::vector<std::vector<ParticleRec>> runs(1);
  runs[0].push_back(rec(1));
  ParticleArray p(-1.0, 1.0);
  p.push_back(rec(99));
  merge_runs(runs, p);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.key[0], 1u);
}

TEST(MergeRuns, StableAcrossRunsForEqualKeys) {
  std::vector<std::vector<ParticleRec>> runs(2);
  runs[0].push_back(rec(5, 1.0));
  runs[1].push_back(rec(5, 2.0));
  ParticleArray p(-1.0, 1.0);
  merge_runs(runs, p);
  EXPECT_EQ(p.x[0], 1.0) << "lower run index first on ties";
  EXPECT_EQ(p.x[1], 2.0);
}

TEST(MergeBucketRuns, EquivalentToConcatThenMergeRuns) {
  // Randomized: buckets cover disjoint ascending key ranges (as the
  // partitioner guarantees), incoming overlaps them arbitrarily. The
  // output must match the reference two-run merge_runs exactly, including
  // tie order.
  picpar::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<ParticleRec>> buckets(4);
    std::uint64_t lo = 0;
    for (auto& b : buckets) {
      const std::uint64_t hi = lo + 1 + rng.below(30);
      const auto count = rng.below(25);  // may be empty
      for (std::uint64_t i = 0; i < count; ++i)
        b.push_back(rec(lo + rng.below(hi - lo), static_cast<double>(trial)));
      std::sort(b.begin(), b.end(),
                [](const ParticleRec& a, const ParticleRec& c) {
                  return a.key < c.key;
                });
      lo = hi;
    }
    std::vector<ParticleRec> incoming;
    for (std::uint64_t i = 0, n = rng.below(60); i < n; ++i)
      incoming.push_back(rec(rng.below(lo + 10), -1.0));
    std::sort(incoming.begin(), incoming.end(),
              [](const ParticleRec& a, const ParticleRec& c) {
                return a.key < c.key;
              });

    // Reference: concatenate buckets into run 0 (run 0 wins ties).
    std::vector<std::vector<ParticleRec>> runs(2);
    for (const auto& b : buckets)
      runs[0].insert(runs[0].end(), b.begin(), b.end());
    runs[1] = incoming;
    ParticleArray expect(-1.0, 1.0);
    merge_runs(runs, expect);

    ParticleArray got(-1.0, 1.0);
    const auto w = merge_bucket_runs(buckets, incoming, got);
    ASSERT_EQ(got.size(), expect.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.key[i], expect.key[i]) << "trial " << trial << " i=" << i;
      EXPECT_EQ(got.x[i], expect.x[i]) << "trial " << trial << " i=" << i;
    }
    EXPECT_EQ(w.moves, got.size()) << "one move per output record";
  }
}

TEST(MergeBucketRuns, BucketSideWinsKeyTies) {
  std::vector<std::vector<ParticleRec>> buckets(2);
  buckets[0].push_back(rec(5, 1.0));
  buckets[1].push_back(rec(9, 2.0));
  std::vector<ParticleRec> incoming{rec(5, -1.0), rec(9, -2.0)};
  ParticleArray p(-1.0, 1.0);
  merge_bucket_runs(buckets, incoming, p);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.x[0], 1.0) << "kept record first on equal keys";
  EXPECT_EQ(p.x[1], -1.0);
  EXPECT_EQ(p.x[2], 2.0);
  EXPECT_EQ(p.x[3], -2.0);
}

TEST(MergeBucketRuns, EmptySidesAndReplacement) {
  std::vector<std::vector<ParticleRec>> buckets(3);  // all empty
  std::vector<ParticleRec> incoming{rec(2), rec(7)};
  ParticleArray p(-1.0, 1.0);
  p.push_back(rec(99));  // stale contents must be replaced
  merge_bucket_runs(buckets, incoming, p);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.key[0], 2u);
  EXPECT_EQ(p.key[1], 7u);

  buckets[1].push_back(rec(3));
  const auto w = merge_bucket_runs(buckets, {}, p);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.key[0], 3u);
  EXPECT_EQ(w.moves, 1u);
  EXPECT_EQ(w.comparisons, 0u) << "no dual-live steps with one side empty";

  merge_bucket_runs({}, {}, p);
  EXPECT_EQ(p.size(), 0u);
}

void expect_radix_matches_std_sort(std::vector<std::uint64_t> keys) {
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  radix_sort_keys(keys);
  EXPECT_EQ(keys, expect);
}

TEST(RadixSortKeys, EmptyAndOneKey) {
  expect_radix_matches_std_sort({});
  expect_radix_matches_std_sort({42});
  expect_radix_matches_std_sort({0});
}

TEST(RadixSortKeys, AllKeysEqual) {
  expect_radix_matches_std_sort(std::vector<std::uint64_t>(300, 0x1234));
  expect_radix_matches_std_sort(std::vector<std::uint64_t>(300, 0));
}

TEST(RadixSortKeys, HeavyDuplicatesAndKeyZero) {
  picpar::Rng rng(7);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back(rng.below(5) * 0x10001);
  keys.push_back(0);
  expect_radix_matches_std_sort(keys);
}

TEST(RadixSortKeys, Bit63RunsEveryBytePass) {
  // Random bytes in every position plus keys with the top bit set: all
  // eight passes run and every byte decides some comparisons.
  picpar::Rng rng(11);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t hi = rng.below(1ull << 32);
    const std::uint64_t lo = rng.below(1ull << 32);
    keys.push_back((hi << 32) | lo);
  }
  keys.push_back(~0ull);
  keys.push_back(1ull << 63);
  keys.push_back((1ull << 63) | 1);
  keys.push_back(0);
  keys.push_back(1ull << 63);
  expect_radix_matches_std_sort(keys);
}

TEST(RadixSortKeys, NarrowKeysAcrossByteBoundaries) {
  // Keys under 2^16 (two passes) and under 2^24 (three, an odd count, so
  // the result ends up in the scratch buffer's storage).
  for (const std::uint64_t bound : {1ull << 8, 1ull << 16, 1ull << 24}) {
    picpar::Rng rng(bound);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 777; ++i) keys.push_back(rng.below(bound));
    expect_radix_matches_std_sort(keys);
  }
}

TEST(SortWork, AccumulatesWithPlusEquals) {
  SortWork a{10, 5}, b{1, 2};
  a += b;
  EXPECT_EQ(a.comparisons, 11u);
  EXPECT_EQ(a.moves, 7u);
  EXPECT_EQ(a.total_ops(), 18u);
}

}  // namespace
}  // namespace picpar::core
