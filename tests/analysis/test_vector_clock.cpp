// Vector-clock algebra: tick/merge semantics, the happens-before partial
// order, concurrency as incomparability, and hashing stability.
#include <gtest/gtest.h>

#include "analysis/vector_clock.hpp"

namespace picpar::analysis {
namespace {

TEST(VectorClock, StartsAtZero) {
  VectorClock c(4);
  EXPECT_EQ(c.size(), 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(c[r], 0u);
  EXPECT_TRUE(VectorClock().empty());
  EXPECT_FALSE(c.empty());
}

TEST(VectorClock, TickAdvancesOnlyOwnComponent) {
  VectorClock c(3);
  c.tick(1);
  c.tick(1);
  c.tick(2);
  EXPECT_EQ(c[0], 0u);
  EXPECT_EQ(c[1], 2u);
  EXPECT_EQ(c[2], 1u);
}

TEST(VectorClock, MergeIsComponentwiseMax) {
  VectorClock a(3), b(3);
  a.tick(0);
  a.tick(0);
  b.tick(1);
  b.tick(2);
  a.merge(b);
  EXPECT_EQ(a[0], 2u);
  EXPECT_EQ(a[1], 1u);
  EXPECT_EQ(a[2], 1u);
}

TEST(VectorClock, MergeRejectsSizeMismatch) {
  VectorClock a(3), b(2);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(VectorClock, HappensBeforeIsStrict) {
  VectorClock a(2), b(2);
  a.tick(0);            // a = [1 0]
  b = a;
  b.tick(1);            // b = [1 1]
  EXPECT_TRUE(a.happens_before(b));
  EXPECT_FALSE(b.happens_before(a));
  EXPECT_FALSE(a.happens_before(a));  // irreflexive
  EXPECT_FALSE(a.concurrent(b));
}

TEST(VectorClock, IncomparableClocksAreConcurrent) {
  VectorClock a(2), b(2);
  a.tick(0);  // [1 0]
  b.tick(1);  // [0 1]
  EXPECT_FALSE(a.happens_before(b));
  EXPECT_FALSE(b.happens_before(a));
  EXPECT_TRUE(a.concurrent(b));
  EXPECT_TRUE(b.concurrent(a));
}

TEST(VectorClock, EqualClocksAreNeitherOrderedNorConcurrent) {
  VectorClock a(2), b(2);
  a.tick(0);
  b.tick(0);
  EXPECT_FALSE(a.happens_before(b));
  EXPECT_FALSE(a.concurrent(b));
}

TEST(VectorClock, MessagePassingEstablishesOrder) {
  // The textbook scenario: send on rank 0, receive-with-merge on rank 1.
  // The send happens-before every later rank-1 event; an independent rank-2
  // event stays concurrent with all of it.
  VectorClock r0(3), r1(3), r2(3);
  r0.tick(0);                       // send event, clock rides the message
  const VectorClock msg = r0;
  r1.merge(msg);
  r1.tick(1);                       // receive event
  r2.tick(2);                       // unrelated local event
  EXPECT_TRUE(msg.happens_before(r1));
  EXPECT_TRUE(msg.concurrent(r2));
  EXPECT_TRUE(r1.concurrent(r2));
}

TEST(VectorClock, HashDistinguishesAndIsStable) {
  VectorClock a(3), b(3);
  a.tick(0);
  b.tick(1);
  EXPECT_NE(a.hash(), b.hash());
  const auto h = a.hash();
  EXPECT_EQ(a.hash(), h);
  VectorClock c(3);
  c.tick(0);
  EXPECT_EQ(c.hash(), h);
}

// fnv_mix folds a word's high zero bytes into one multiplication; it must
// give the byte-by-byte FNV-1a fold's bits for every word, zero bytes in
// the middle and all-ones included.
TEST(VectorClock, FnvMixIsByteWiseFnv1a) {
  const auto reference = [](std::uint64_t h, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  const std::uint64_t words[] = {0,
                                 1,
                                 0xff,
                                 0x100,
                                 0x10000,
                                 0x5ECE15ED,
                                 0x0100000000000000ULL,
                                 0x8000000000000001ULL,
                                 0x00ff00ff00ff00ffULL,
                                 ~std::uint64_t{0}};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t want = h;
  for (const std::uint64_t w : words) {
    fnv_mix(h, w);
    want = reference(want, w);
    EXPECT_EQ(h, want) << "after word " << w;
  }
}

TEST(VectorClock, StrFormat) {
  VectorClock a(3);
  a.tick(1);
  a.tick(1);
  a.tick(2);
  EXPECT_EQ(a.str(), "[0 2 1]");
}

}  // namespace
}  // namespace picpar::analysis
