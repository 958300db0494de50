#include "mesh/grid.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace picpar::mesh {
namespace {

// The kernels' block scratch and the set-up's memory use both depend on
// this: a grown GridDesc once cost about 10 MB of fresh pages per run_pic
// call (DESIGN.md §18).
static_assert(sizeof(GridDesc) == 24);

/// The wrap formula before its in-range fast path, kept as the reference.
double reference_wrap(double x, double l) {
  x -= l * static_cast<double>(static_cast<long long>(x / l));
  if (x < 0.0) x += l;
  if (x >= l) x -= l;
  return x;
}

/// Bitwise equality: tells -0.0 from 0.0.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(GridDesc, DefaultPhysicalSizeIsUnitCells) {
  GridDesc g(8, 4);
  EXPECT_DOUBLE_EQ(g.lx, 8.0);
  EXPECT_DOUBLE_EQ(g.ly, 4.0);
  EXPECT_DOUBLE_EQ(g.dx(), 1.0);
  EXPECT_DOUBLE_EQ(g.dy(), 1.0);
}

TEST(GridDesc, ExplicitPhysicalSize) {
  GridDesc g(10, 10, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(g.dx(), 0.2);
  EXPECT_DOUBLE_EQ(g.dy(), 0.4);
}

TEST(GridDesc, RejectsZeroDims) {
  EXPECT_THROW(GridDesc(0, 4), std::invalid_argument);
  EXPECT_THROW(GridDesc(4, 0), std::invalid_argument);
}

TEST(GridDesc, NodeIdRoundTrip) {
  GridDesc g(7, 5);
  for (std::uint32_t y = 0; y < 5; ++y)
    for (std::uint32_t x = 0; x < 7; ++x) {
      const auto id = g.node_id(x, y);
      EXPECT_EQ(g.node_x(id), x);
      EXPECT_EQ(g.node_y(id), y);
    }
}

TEST(GridDesc, PeriodicNeighbors) {
  GridDesc g(4, 3);
  const auto id = g.node_id(0, 0);
  EXPECT_EQ(g.east(id), g.node_id(1, 0));
  EXPECT_EQ(g.west(id), g.node_id(3, 0));   // wraps
  EXPECT_EQ(g.north(id), g.node_id(0, 1));
  EXPECT_EQ(g.south(id), g.node_id(0, 2));  // wraps
}

TEST(GridDesc, NeighborsAreInvolutions) {
  GridDesc g(6, 4);
  for (std::uint64_t id = 0; id < g.nodes(); ++id) {
    EXPECT_EQ(g.west(g.east(id)), id);
    EXPECT_EQ(g.south(g.north(id)), id);
  }
}

TEST(GridDesc, WrapPositionsIntoDomain) {
  GridDesc g(10, 10);
  EXPECT_DOUBLE_EQ(g.wrap_x(-0.5), 9.5);
  EXPECT_DOUBLE_EQ(g.wrap_x(10.5), 0.5);
  EXPECT_DOUBLE_EQ(g.wrap_y(25.0), 5.0);
  EXPECT_DOUBLE_EQ(g.wrap_x(3.0), 3.0);
}

TEST(GridDesc, WrapBoundaryLandsInside) {
  GridDesc g(4, 4);
  const double x = g.wrap_x(4.0);
  EXPECT_GE(x, 0.0);
  EXPECT_LT(x, 4.0);
}

TEST(GridDesc, WrapMatchesReferenceFormulaBitForBit) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const GridDesc& g :
       {GridDesc(10, 10), GridDesc(256, 128, 1.0, 0.3), GridDesc(3, 7, 0.1, 0.7),
        GridDesc(128, 64, 128.0 * 0.1, 64.0 * 0.1)}) {
    for (const double l : {g.lx, g.ly}) {
      const double eps = l * std::numeric_limits<double>::epsilon();
      for (const double x :
           {0.0, -0.0, tiny, -tiny, -1e-300, std::nextafter(l, 0.0), l, -l,
            std::nextafter(-l, 0.0), 0.5 * l, 2.0 * l - eps, 2.0 * l,
            -2.0 * l + eps, 1e6 * l + 0.25 * l, -1e6 * l - 0.25 * l, 1e15,
            -1e15, std::nextafter(l, 2.0 * l)}) {
        const double want = reference_wrap(x, l);
        const double got = l == g.lx ? g.wrap_x(x) : g.wrap_y(x);
        EXPECT_TRUE(same_bits(got, want))
            << "l=" << l << " x=" << x << " got " << got << " want " << want;
      }
    }
  }
}

TEST(GridDesc, WrapFastPathKeepsSignOfZeroAndNan) {
  GridDesc g(4, 4);
  EXPECT_TRUE(std::signbit(g.wrap_x(-0.0)));
  EXPECT_TRUE(std::signbit(g.wrap_y(-0.0)));
  EXPECT_TRUE(same_bits(g.wrap_x(std::nextafter(4.0, 0.0)),
                        std::nextafter(4.0, 0.0)));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(g.wrap_x(nan)));
  EXPECT_TRUE(std::isnan(g.wrap_y(nan)));
}

TEST(GridDesc, WrapMatchesReferenceOnRandomValues) {
  // Positions one push step can produce: mostly in range, some just
  // outside either edge. x/lx rounds up to 1.0 for values just below lx.
  GridDesc g(256, 128, 25.6, 12.8);
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20000; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(s >> 11) * 0x1p-53;  // [0, 1)
    const double x = (u * 1.2 - 0.1) * g.lx;
    EXPECT_TRUE(same_bits(g.wrap_x(x), reference_wrap(x, g.lx))) << x;
    EXPECT_TRUE(same_bits(g.wrap_y(x), reference_wrap(x, g.ly))) << x;
  }
}

TEST(GridDesc, CellOfWithHoistedCellSizeMatches) {
  GridDesc g(7, 5, 0.7, 0.3);
  const double dx = g.dx(), dy = g.dy();
  for (double x = 0.0; x < g.lx; x += 0.013)
    for (double y = 0.0; y < g.ly; y += 0.011)
      EXPECT_EQ(g.cell_of(x, y, dx, dy), g.cell_of(x, y));
}

TEST(GridDesc, CellOfMapsPositions) {
  GridDesc g(4, 4, 8.0, 8.0);  // dx = dy = 2
  EXPECT_EQ(g.cell_of(0.1, 0.1), g.node_id(0, 0));
  EXPECT_EQ(g.cell_of(2.1, 0.1), g.node_id(1, 0));
  EXPECT_EQ(g.cell_of(7.9, 7.9), g.node_id(3, 3));
}

TEST(GridDesc, CellOfClampsAtUpperEdge) {
  GridDesc g(4, 4);
  // A position exactly at the domain edge (possible after wrap rounding)
  // must still map to a valid cell.
  const auto id = g.cell_of(std::nextafter(4.0, 0.0), std::nextafter(4.0, 0.0));
  EXPECT_LT(id, g.cells());
}

TEST(GridDesc, CountsAreConsistent) {
  GridDesc g(12, 9);
  EXPECT_EQ(g.nodes(), 108u);
  EXPECT_EQ(g.cells(), 108u);
}

}  // namespace
}  // namespace picpar::mesh
