// Collectives, parameterized over machine sizes including non-powers of two.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/comm.hpp"

namespace picpar::sim {
namespace {

class Collectives : public ::testing::TestWithParam<int> {
protected:
  int p() const { return GetParam(); }
  Machine machine() { return Machine(p(), CostModel::zero()); }
};

TEST_P(Collectives, BarrierCompletes) {
  auto m = machine();
  m.run([](Comm& c) {
    for (int i = 0; i < 3; ++i) c.barrier();
  });
}

TEST_P(Collectives, BcastFromEveryRoot) {
  auto m = machine();
  for (int root = 0; root < p(); ++root) {
    m.run([root](Comm& c) {
      std::vector<int> data;
      if (c.rank() == root) data = {root, root * 2, root * 3};
      else data = {0, 0, 0};
      data = c.bcast(std::move(data), root);
      EXPECT_EQ(data, (std::vector<int>{root, root * 2, root * 3}));
    });
  }
}

TEST_P(Collectives, BcastValue) {
  auto m = machine();
  m.run([](Comm& c) {
    const double v = c.bcast_value(c.rank() == 0 ? 3.5 : 0.0, 0);
    EXPECT_DOUBLE_EQ(v, 3.5);
  });
}

TEST_P(Collectives, AllreduceSum) {
  auto m = machine();
  const int n = p();
  m.run([n](Comm& c) {
    EXPECT_EQ(c.allreduce_sum<long>(c.rank() + 1),
              static_cast<long>(n) * (n + 1) / 2);
  });
}

TEST_P(Collectives, AllreduceMaxMin) {
  auto m = machine();
  const int n = p();
  m.run([n](Comm& c) {
    EXPECT_EQ(c.allreduce_max<int>(c.rank()), n - 1);
    EXPECT_EQ(c.allreduce_min<int>(c.rank() + 10), 10);
  });
}

TEST_P(Collectives, AllreduceVectorElementwise) {
  auto m = machine();
  const int n = p();
  m.run([n](Comm& c) {
    std::vector<double> v{1.0, static_cast<double>(c.rank())};
    v = c.allreduce(std::move(v), [](double a, double b) { return a + b; });
    EXPECT_DOUBLE_EQ(v[0], n);
    EXPECT_DOUBLE_EQ(v[1], n * (n - 1) / 2.0);
  });
}

TEST_P(Collectives, AllgatherOrderedByRank) {
  auto m = machine();
  const int n = p();
  m.run([n](Comm& c) {
    const auto v = c.allgather<int>(c.rank() * 10);
    ASSERT_EQ(static_cast<int>(v.size()), n);
    for (int r = 0; r < n; ++r) EXPECT_EQ(v[static_cast<std::size_t>(r)], r * 10);
  });
}

TEST_P(Collectives, AllgathervVariableBlocks) {
  auto m = machine();
  const int n = p();
  m.run([n](Comm& c) {
    // Rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(c.rank() + 1), c.rank());
    std::vector<std::size_t> offsets;
    const auto cat = c.allgatherv(mine, &offsets);
    ASSERT_EQ(static_cast<int>(cat.size()), n * (n + 1) / 2);
    ASSERT_EQ(static_cast<int>(offsets.size()), n);
    for (int r = 0; r < n; ++r) {
      for (int k = 0; k <= r; ++k)
        EXPECT_EQ(cat[offsets[static_cast<std::size_t>(r)] +
                      static_cast<std::size_t>(k)],
                  r);
    }
  });
}

TEST_P(Collectives, AllgathervWithEmptyBlocks) {
  auto m = machine();
  m.run([](Comm& c) {
    // Even rank r contributes r+1 values, odd ranks nothing: an empty
    // block's offset is where the next block starts.
    const auto block = [](int r) {
      std::vector<double> b;
      if (r % 2 == 0)
        for (int i = 0; i <= r; ++i) b.push_back(r * 10.0 + i);
      return b;
    };
    std::vector<std::size_t> offsets;
    const auto cat = c.allgatherv(block(c.rank()), &offsets);
    std::vector<double> expect;
    std::vector<std::size_t> expect_offsets;
    for (int r = 0; r < c.size(); ++r) {
      expect_offsets.push_back(expect.size());
      const auto b = block(r);
      expect.insert(expect.end(), b.begin(), b.end());
    }
    EXPECT_EQ(offsets, expect_offsets);
    EXPECT_EQ(cat, expect);
  });
}

TEST_P(Collectives, AllgathervSharesOneObjectPerCall) {
  auto m = machine();
  const int n = p();
  const auto np = static_cast<std::size_t>(n);
  std::vector<std::shared_ptr<const Gathered<int>>> first(np), second(np);
  int made = 0;  // ranks run one at a time on the sequential engine
  m.run([&](Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    first[r] = c.allgatherv_shared(std::vector<int>{c.rank()});
    second[r] = c.allgatherv_shared(
        std::vector<int>(static_cast<std::size_t>(c.rank() % 2), c.rank()));
    const long sum = first[r]->derive<long>([&] {
      ++made;
      long t = 0;
      for (const int v : first[r]->values()) t += v;
      return t;
    });
    EXPECT_EQ(sum, static_cast<long>(n) * (n - 1) / 2);
  });
  for (std::size_t r = 0; r < np; ++r) {
    EXPECT_EQ(first[r].get(), first[0].get()) << "rank " << r;
    EXPECT_EQ(second[r].get(), second[0].get()) << "rank " << r;
  }
  EXPECT_NE(first[0].get(), second[0].get());
  EXPECT_EQ(made, 1);
  EXPECT_EQ(second[0]->values().size(), np / 2);
}

TEST_P(Collectives, ExscanSum) {
  auto m = machine();
  m.run([](Comm& c) {
    EXPECT_EQ(c.exscan_sum<int>(2), 2 * c.rank());
  });
}

TEST_P(Collectives, AllToManyFullExchange) {
  auto m = machine();
  const int n = p();
  m.run([n](Comm& c) {
    std::vector<std::vector<int>> send(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d)
      send[static_cast<std::size_t>(d)] = {c.rank() * 1000 + d};
    auto recv = c.all_to_many(std::move(send));
    ASSERT_EQ(static_cast<int>(recv.size()), n);
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)][0], s * 1000 + c.rank());
    }
  });
}

TEST_P(Collectives, AllToManySparsePattern) {
  auto m = machine();
  const int n = p();
  m.run([n](Comm& c) {
    // Send only to rank (self+1)%p, three elements.
    std::vector<std::vector<long>> send(static_cast<std::size_t>(n));
    const int dst = (c.rank() + 1) % n;
    send[static_cast<std::size_t>(dst)] = {1, 2, 3};
    auto recv = c.all_to_many(std::move(send));
    const int src = (c.rank() - 1 + n) % n;
    for (int s = 0; s < n; ++s) {
      if (s == src) {
        EXPECT_EQ(recv[static_cast<std::size_t>(s)],
                  (std::vector<long>{1, 2, 3}));
      } else if (s != c.rank() || src != c.rank()) {
        EXPECT_TRUE(s == src || recv[static_cast<std::size_t>(s)].empty());
      }
    }
  });
}

TEST_P(Collectives, AllToManyAllEmpty) {
  auto m = machine();
  const int n = p();
  m.run([n](Comm& c) {
    std::vector<std::vector<int>> send(static_cast<std::size_t>(n));
    auto recv = c.all_to_many(std::move(send));
    for (const auto& b : recv) EXPECT_TRUE(b.empty());
  });
}

TEST_P(Collectives, AllToManyPairsMatchesDense) {
  // The dense overload delegates to the sparse one, so equivalence here is
  // the contract that every pre-sparsification caller still gets the exact
  // exchange it got before: same payloads, same source attribution.
  auto m = machine();
  const int n = p();
  m.run([n](Comm& c) {
    // Every rank sends to its ring neighbors and to rank 0, skipping one
    // destination class so some buffers are empty in the dense form.
    auto payload = [&](int src, int dst) {
      return std::vector<int>{src * 1000 + dst, dst};
    };
    std::vector<std::vector<int>> dense(static_cast<std::size_t>(n));
    std::vector<std::pair<int, std::vector<int>>> pairs;
    // Deliberately unsorted destination order for the sparse form.
    for (const int d : {0, (c.rank() + 1) % n, (c.rank() + n - 1) % n}) {
      if (!dense[static_cast<std::size_t>(d)].empty()) continue;
      dense[static_cast<std::size_t>(d)] = payload(c.rank(), d);
      pairs.emplace_back(d, payload(c.rank(), d));
    }
    std::reverse(pairs.begin(), pairs.end());
    const auto dense_recv = c.all_to_many(std::move(dense));
    const auto sparse_recv = c.all_to_many(std::move(pairs));
    // Sparse result expanded to dense shape must match exactly.
    std::vector<std::vector<int>> expanded(static_cast<std::size_t>(n));
    int prev_src = -1;
    for (const auto& [src, buf] : sparse_recv) {
      EXPECT_GT(src, prev_src) << "sources must ascend";
      prev_src = src;
      EXPECT_FALSE(buf.empty()) << "empty deliveries must be dropped";
      expanded[static_cast<std::size_t>(src)] = buf;
    }
    EXPECT_EQ(expanded, dense_recv);
  });
}

TEST_P(Collectives, AllToManyPairsValidation) {
  auto m = machine();
  EXPECT_THROW(m.run([](Comm& c) {
                 std::vector<std::pair<int, std::vector<int>>> send;
                 send.emplace_back(c.size(), std::vector<int>{1});
                 (void)c.all_to_many(std::move(send));
               }),
               std::invalid_argument);
  auto m2 = machine();
  EXPECT_THROW(m2.run([](Comm& c) {
                 std::vector<std::pair<int, std::vector<int>>> send;
                 send.emplace_back(0, std::vector<int>{1});
                 send.emplace_back(0, std::vector<int>{2});
                 (void)c.all_to_many(std::move(send));
               }),
               std::invalid_argument);
}

TEST_P(Collectives, AllToManyWrongSizeThrows) {
  auto m = machine();
  EXPECT_THROW(m.run([](Comm& c) {
                 std::vector<std::vector<int>> send(
                     static_cast<std::size_t>(c.size()) + 1);
                 (void)c.all_to_many(std::move(send));
               }),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 32),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace picpar::sim
