#include "particles/interpolate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace picpar::particles {
namespace {

using mesh::GridDesc;

TEST(CicStencil, PeriodicNeighbourAtLastColumnAndRow) {
  GridDesc g(5, 3);
  // Inside the last cell of both axes: the x1 and y1 vertices wrap to 0.
  const auto st = cic_stencil(g, 4.25, 2.5);
  EXPECT_EQ(st.node[0], g.node_id(4, 2));
  EXPECT_EQ(st.node[1], g.node_id(0, 2));
  EXPECT_EQ(st.node[2], g.node_id(4, 0));
  EXPECT_EQ(st.node[3], g.node_id(0, 0));
  EXPECT_DOUBLE_EQ(st.weight[1], 0.25 * 0.5);
}

TEST(CicStencil, ClampedUpperEdgeWrapsToo) {
  // x == lx after rounding clamps to the last cell; its neighbour wraps.
  GridDesc g(4, 4);
  const auto st = cic_stencil(g, 4.0, std::nextafter(4.0, 0.0));
  EXPECT_EQ(st.node[0], g.node_id(3, 3));
  EXPECT_EQ(st.node[3], g.node_id(0, 0));
}

TEST(CicStencil, SingleCellAxisWrapsOntoItself) {
  for (const GridDesc& g : {GridDesc(1, 4), GridDesc(4, 1), GridDesc(1, 1)}) {
    const auto st = cic_stencil(g, 0.5 * g.lx, 0.5 * g.ly);
    for (const auto node : st.node) EXPECT_LT(node, g.nodes());
    if (g.nx == 1) {
      EXPECT_EQ(st.node[1], st.node[0]);
    }
    if (g.ny == 1) {
      EXPECT_EQ(st.node[2], st.node[0]);
    }
  }
}

TEST(CicStencil, NeighboursMatchModuloEverywhere) {
  GridDesc g(6, 5, 1.2, 0.5);
  for (double x = 0.0; x < g.lx; x += 0.037) {
    for (double y = 0.0; y < g.ly; y += 0.029) {
      const auto st = cic_stencil(g, x, y);
      const auto cx = g.node_x(st.node[0]);
      const auto cy = g.node_y(st.node[0]);
      EXPECT_EQ(st.node[1], g.node_id((cx + 1) % g.nx, cy));
      EXPECT_EQ(st.node[2], g.node_id(cx, (cy + 1) % g.ny));
      EXPECT_EQ(st.node[3], g.node_id((cx + 1) % g.nx, (cy + 1) % g.ny));
    }
  }
}

TEST(CicStencil, CellIsDefinedForEveryQuotient) {
  // Quotients a faulted position can produce, with the cell coordinate
  // each must give before the clamp (see mesh::cell_coord).
  const GridDesc g(5, 3);
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double q;
    std::uint32_t coord;
  } cases[] = {
      {0.0, 0},          {0.5, 0},
      {-0.5, 0},         {-1.5, 4294967295u},
      {-3e9, 1294967296u}, {4294967296.0 + 5.0, 5},
      {1e15, 2764472320u}, {1e19, 0},
      {-1e19, 0},        {1e300, 0},
      {-1e300, 0},       {inf, 0},
      {-inf, 0},         {std::numeric_limits<double>::quiet_NaN(), 0},
      {9223372036854775808.0, 0}, {-9223372036854775808.0, 0},
  };
  for (const auto& c : cases) {
    const auto st = cic_stencil_of_quotients(g, c.q, c.q);
    const std::uint32_t cx = std::min(c.coord, g.nx - 1);
    const std::uint32_t cy = std::min(c.coord, g.ny - 1);
    EXPECT_EQ(st.node[0], g.node_id(cx, cy)) << c.q;
    for (const auto node : st.node) EXPECT_LT(node, g.nodes()) << c.q;
  }
}

TEST(CicStencil, HoistedCellSizeGivesTheSameStencil) {
  GridDesc g(7, 3, 0.7, 0.9);
  const double dx = g.dx(), dy = g.dy();
  for (double x = 0.0; x < g.lx; x += 0.019) {
    for (double y = 0.0; y < g.ly; y += 0.023) {
      const auto a = cic_stencil(g, x, y);
      const auto b = cic_stencil_of_quotients(g, x / dx, y / dy);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(a.node[k], b.node[k]);
        EXPECT_EQ(a.weight[k], b.weight[k]);
      }
    }
  }
}

}  // namespace
}  // namespace picpar::particles
