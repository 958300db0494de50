#include "mesh/local_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sfc/hilbert.hpp"
#include "sfc/simple_curves.hpp"

namespace picpar::mesh {
namespace {

GridPartition make_block(const GridDesc& g, int p) {
  return GridPartition::block_auto(g, p);
}
GridPartition make_hilbert(const GridDesc& g, int p) {
  sfc::HilbertCurve c(g.nx, g.ny);
  return GridPartition::curve(g, p, c);
}
GridPartition make_snake(const GridDesc& g, int p) {
  sfc::SnakeCurve c(g.nx, g.ny);
  return GridPartition::curve(g, p, c);
}

struct Decomp {
  const char* name;
  GridPartition (*make)(const GridDesc&, int);
};

// gtest prints the parameter into the test name; print the decomposition's
// name rather than the factory's address, which changes with every run.
void PrintTo(const Decomp& d, std::ostream* os) { *os << d.name; }

class LocalGridDecomp : public ::testing::TestWithParam<Decomp> {};

TEST_P(LocalGridDecomp, LocalIndexingIsConsistent) {
  GridDesc g(16, 12);
  for (const int p : {1, 6, 64}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const auto part = GetParam().make(g, p);
    for (int r = 0; r < p; ++r) {
      LocalGrid lg(part, r);
      EXPECT_EQ(lg.owned(), part.count_of(r));
      for (std::size_t l = 0; l < lg.total(); ++l)
        EXPECT_EQ(lg.local_of(lg.gid_of(l)), l);
      for (std::size_t l = 0; l < lg.owned(); ++l)
        EXPECT_TRUE(lg.owns(lg.gid_of(l)));
      // Every other gid of the grid, inside the rank's range or not, has
      // no local index; so do ids past the grid.
      std::set<std::uint64_t> mine;
      for (std::size_t l = 0; l < lg.total(); ++l) mine.insert(lg.gid_of(l));
      for (std::uint64_t gid = 0; gid < g.nodes() + 3; ++gid)
        if (!mine.count(gid))
          EXPECT_EQ(lg.local_of(gid), kNoLocal) << "rank " << r << " gid " << gid;
    }
  }
}

TEST_P(LocalGridDecomp, StencilMatchesGlobalNeighbors) {
  GridDesc g(12, 12);
  const auto part = GetParam().make(g, 4);
  for (int r = 0; r < 4; ++r) {
    LocalGrid lg(part, r);
    for (std::size_t l = 0; l < lg.owned(); ++l) {
      const auto id = lg.gid_of(l);
      EXPECT_EQ(lg.gid_of(lg.east(l)), g.east(id));
      EXPECT_EQ(lg.gid_of(lg.west(l)), g.west(id));
      EXPECT_EQ(lg.gid_of(lg.north(l)), g.north(id));
      EXPECT_EQ(lg.gid_of(lg.south(l)), g.south(id));
    }
  }
}

TEST_P(LocalGridDecomp, HaloPeersAreSymmetric) {
  GridDesc g(20, 10);
  const auto part = GetParam().make(g, 5);
  std::vector<LocalGrid> grids;
  for (int r = 0; r < 5; ++r) grids.emplace_back(part, r);
  for (int a = 0; a < 5; ++a) {
    for (const auto& peer : grids[static_cast<std::size_t>(a)].halo_peers()) {
      // Find the reciprocal peer entry on the other side.
      const auto& other = grids[static_cast<std::size_t>(peer.rank)];
      const auto it = std::find_if(
          other.halo_peers().begin(), other.halo_peers().end(),
          [a](const LocalGrid::HaloPeer& p) { return p.rank == a; });
      ASSERT_NE(it, other.halo_peers().end());
      EXPECT_EQ(peer.recv.size(), it->send.size());
      EXPECT_EQ(peer.send.size(), it->recv.size());
      // And the global ids line up element-wise.
      for (std::size_t i = 0; i < peer.recv.size(); ++i)
        EXPECT_EQ(grids[static_cast<std::size_t>(a)].gid_of(peer.recv[i]),
                  other.gid_of(it->send[i]));
    }
  }
}

TEST_P(LocalGridDecomp, GhostsAreExactlyStencilNonOwned) {
  GridDesc g(16, 8);
  const auto part = GetParam().make(g, 4);
  for (int r = 0; r < 4; ++r) {
    LocalGrid lg(part, r);
    std::set<std::uint64_t> expected;
    for (const auto id : part.nodes_of(r))
      for (const auto nb : {g.east(id), g.west(id), g.north(id), g.south(id)})
        if (part.owner(nb) != r) expected.insert(nb);
    EXPECT_EQ(lg.ghosts(), expected.size());
    for (std::size_t l = lg.owned(); l < lg.total(); ++l)
      EXPECT_TRUE(expected.count(lg.gid_of(l)));
  }
}

INSTANTIATE_TEST_SUITE_P(Decomps, LocalGridDecomp,
                         ::testing::Values(Decomp{"block", &make_block},
                                           Decomp{"hilbert", &make_hilbert},
                                           Decomp{"snake", &make_snake}));

TEST(HaloExchange, GhostsReceiveOwnersValues) {
  GridDesc g(16, 16);
  sfc::HilbertCurve c(16, 16);
  const auto part = GridPartition::curve(g, 4, c);
  sim::Machine m(4, sim::CostModel::zero());
  m.run([&](sim::Comm& comm) {
    LocalGrid lg(part, comm.rank());
    auto field = lg.make_field();
    // Owned values encode the global id; ghosts start poisoned.
    for (std::size_t l = 0; l < lg.owned(); ++l)
      field[l] = static_cast<double>(lg.gid_of(l)) + 0.25;
    for (std::size_t l = lg.owned(); l < lg.total(); ++l) field[l] = -1.0;
    lg.halo_exchange(comm, {&field});
    for (std::size_t l = lg.owned(); l < lg.total(); ++l)
      EXPECT_DOUBLE_EQ(field[l], static_cast<double>(lg.gid_of(l)) + 0.25);
  });
}

TEST(HaloExchange, MultipleFieldsInOneMessage) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  sim::Machine m(4, sim::CostModel::zero());
  m.run([&](sim::Comm& comm) {
    LocalGrid lg(part, comm.rank());
    auto a = lg.make_field();
    auto b = lg.make_field();
    for (std::size_t l = 0; l < lg.owned(); ++l) {
      a[l] = static_cast<double>(lg.gid_of(l));
      b[l] = -static_cast<double>(lg.gid_of(l));
    }
    const auto before = comm.stats().total().msgs_sent;
    lg.halo_exchange(comm, {&a, &b});
    const auto sent = comm.stats().total().msgs_sent - before;
    EXPECT_EQ(sent, lg.halo_peers().size());  // coalesced: one per peer
    for (std::size_t l = lg.owned(); l < lg.total(); ++l) {
      EXPECT_DOUBLE_EQ(a[l], static_cast<double>(lg.gid_of(l)));
      EXPECT_DOUBLE_EQ(b[l], -static_cast<double>(lg.gid_of(l)));
    }
  });
}

TEST(HaloExchange, WrongFieldSizeThrows) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 2, 2);
  sim::Machine m(4, sim::CostModel::zero());
  EXPECT_THROW(m.run([&](sim::Comm& comm) {
                 LocalGrid lg(part, comm.rank());
                 std::vector<double> bad(3, 0.0);
                 lg.halo_exchange(comm, {&bad});
               }),
               std::invalid_argument);
}

TEST(LocalGrid, SingleRankOwnsEverythingNoGhosts) {
  GridDesc g(8, 8);
  const auto part = GridPartition::block(g, 1, 1);
  LocalGrid lg(part, 0);
  EXPECT_EQ(lg.owned(), 64u);
  EXPECT_EQ(lg.ghosts(), 0u);
  EXPECT_TRUE(lg.halo_peers().empty());
}

}  // namespace
}  // namespace picpar::mesh
