#include "trace/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace picpar::trace {
namespace {

TEST(Histogram, Log2BucketPlacement) {
  Histogram h;
  h.observe(0);     // bucket 0: values <= 1
  h.observe(1);     // bucket 0
  h.observe(2);     // bucket 1: (1, 2]
  h.observe(3);     // bucket 2: (2, 4]
  h.observe(4);     // bucket 2
  h.observe(1024);  // bucket 10: (512, 1024]

  ASSERT_EQ(h.buckets.size(), kHistogramBuckets);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[10], 1u);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_DOUBLE_EQ(h.sum, 1034.0);
}

TEST(Histogram, ExtremeValuesStayInRange) {
  Histogram h;
  h.observe(~std::uint64_t{0});
  EXPECT_EQ(h.buckets[64], 1u);
  EXPECT_EQ(h.max, ~std::uint64_t{0});
}

// Every bucket's "le_2^k" label must be an exact inclusive upper bound:
// bucket 0 covers {0, 1}; bucket k = 1..64 covers (2^(k-1), 2^k].
// Regression for three historical off-by-ones: value 0 and 1 sharing a
// bucket, exact powers of two landing one bucket high (bit_width(2^k) is
// k+1), and the top bucket overflowing past index 64 for values >= 2^63.
TEST(Histogram, EveryBucketBoundaryIsExact) {
  for (std::size_t k = 0; k < kHistogramBuckets; ++k) {
    const std::uint64_t hi =
        k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k);
    const std::uint64_t lo = k == 0 ? 0 : (std::uint64_t{1} << (k - 1)) + 1;

    Histogram h;
    h.observe(lo);  // lowest value of bucket k
    h.observe(hi);  // highest value of bucket k
    ASSERT_EQ(h.buckets.size(), kHistogramBuckets);
    EXPECT_EQ(h.buckets[k], 2u) << "bucket " << k << " lo=" << lo
                                << " hi=" << hi;
    for (std::size_t j = 0; j < kHistogramBuckets; ++j) {
      if (j != k) {
        EXPECT_EQ(h.buckets[j], 0u) << "bucket " << j << " vs " << k;
      }
    }

    // One past the top of bucket k belongs to bucket k+1.
    if (k >= 1 && k < 64) {
      Histogram above;
      above.observe(hi + 1);
      EXPECT_EQ(above.buckets[k + 1], 1u) << "value " << hi + 1;
    }
  }
}

TEST(MetricsRegistry, CountersGaugesAccumulate) {
  MetricsRegistry reg;
  reg.add("a.count");
  reg.add("a.count", 4);
  reg.set("b.gauge", 1.5);
  reg.set("b.gauge", 2.5);  // gauges overwrite

  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].first, "a.count");
  EXPECT_EQ(s.counters[0].second, 5u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 2.5);
}

TEST(MetricsRegistry, SnapshotIsInsertionOrderIndependent) {
  MetricsRegistry a;
  a.add("z", 1);
  a.add("m", 2);
  a.add("a", 3);
  a.set("g2", 0.25);
  a.set("g1", 0.5);
  a.observe("h", 7);

  MetricsRegistry b;
  b.observe("h", 7);
  b.set("g1", 0.5);
  b.add("a", 3);
  b.set("g2", 0.25);
  b.add("m", 2);
  b.add("z", 1);

  EXPECT_EQ(a.snapshot().to_json(), b.snapshot().to_json());
  // Keys come out sorted.
  const auto s = a.snapshot();
  EXPECT_EQ(s.counters[0].first, "a");
  EXPECT_EQ(s.counters[2].first, "z");
  EXPECT_EQ(s.gauges[0].first, "g1");
}

TEST(MetricsSnapshot, JsonShape) {
  MetricsRegistry reg;
  reg.add("c", 2);
  reg.set("g", 0.5);
  reg.observe("h", 3);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"g\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"le_2^2\":1"), std::string::npos);
  // Balanced braces (cheap structural sanity; CI parses it for real).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistry, ClearEmptiesEverything) {
  MetricsRegistry reg;
  reg.add("c");
  reg.set("g", 1.0);
  reg.observe("h", 1);
  EXPECT_FALSE(reg.empty());
  reg.clear();
  EXPECT_TRUE(reg.empty());
  const auto s = reg.snapshot();
  EXPECT_TRUE(s.counters.empty());
  EXPECT_TRUE(s.gauges.empty());
  EXPECT_TRUE(s.histograms.empty());
}

}  // namespace
}  // namespace picpar::trace
