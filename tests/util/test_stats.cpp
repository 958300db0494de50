#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace picpar {
namespace {

TEST(Histogram, RejectsBadArguments) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  h.add(9.9);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 1.0, 4);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 8.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 6.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 8.0);
}

TEST(Histogram, AsciiMentionsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25);
  h.add(0.25);
  const auto s = h.ascii(10);
  EXPECT_NE(s.find("2"), std::string::npos);
  EXPECT_NE(s.find("#"), std::string::npos);
}

TEST(Imbalance, BalancedIsOne) {
  const auto r = imbalance({3.0, 3.0, 3.0});
  EXPECT_DOUBLE_EQ(r.factor(), 1.0);
}

TEST(Imbalance, DetectsSkew) {
  const auto r = imbalance({1.0, 1.0, 10.0});
  EXPECT_DOUBLE_EQ(r.max, 10.0);
  EXPECT_DOUBLE_EQ(r.mean, 4.0);
  EXPECT_DOUBLE_EQ(r.factor(), 2.5);
}

TEST(Imbalance, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(imbalance({}).factor(), 0.0);
}

TEST(Imbalance, CountsOverload) {
  const auto r = imbalance_counts({2, 4, 6});
  EXPECT_DOUBLE_EQ(r.max, 6.0);
  EXPECT_DOUBLE_EQ(r.mean, 4.0);
}

TEST(Percentile, MedianOfOddSet) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, Extremes) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 1.0), 9.0);
}

TEST(Percentile, InterpolatesBetweenSamples) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Percentile, EmptyIsZero) { EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0); }

}  // namespace
}  // namespace picpar
