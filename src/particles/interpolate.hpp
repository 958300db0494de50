// Cloud-in-cell (linear) interpolation between particles and the four
// vertex grid points of their cell — the weight computation shared by the
// scatter and gather phases (paper Fig 3).
#pragma once

#include <cstdint>

#include "mesh/grid.hpp"

namespace picpar::particles {

/// The 4 vertex node ids of a particle's cell plus its bilinear weights.
struct CicStencil {
  std::uint64_t node[4];
  double weight[4];
};

/// The CIC stencil of the position whose grid coordinates are
/// (gx, gy) == (x / dx, y / dy). Weight order: (x0,y0), (x1,y0), (x0,y1),
/// (x1,y1). cic_stencil divides and calls this; the particle kernels take
/// the quotients from a packed block pass and call it too, so both build
/// cell and weights with this one piece of scalar code, even for a NaN or
/// out-of-range position (DESIGN.md §18).
inline CicStencil cic_stencil_of_quotients(const mesh::GridDesc& g,
                                           double gx, double gy) {
  auto cx = static_cast<std::uint32_t>(gx);
  auto cy = static_cast<std::uint32_t>(gy);
  if (cx >= g.nx) cx = g.nx - 1;
  if (cy >= g.ny) cy = g.ny - 1;
  const double fx = gx - static_cast<double>(cx);
  const double fy = gy - static_cast<double>(cy);
  // Periodic neighbour; c < n after the clamp, so this is (c + 1) % n.
  const std::uint32_t cx1 = cx + 1 == g.nx ? 0 : cx + 1;
  const std::uint32_t cy1 = cy + 1 == g.ny ? 0 : cy + 1;

  CicStencil s;
  s.node[0] = g.node_id(cx, cy);
  s.node[1] = g.node_id(cx1, cy);
  s.node[2] = g.node_id(cx, cy1);
  s.node[3] = g.node_id(cx1, cy1);
  s.weight[0] = (1.0 - fx) * (1.0 - fy);
  s.weight[1] = fx * (1.0 - fy);
  s.weight[2] = (1.0 - fx) * fy;
  s.weight[3] = fx * fy;
  return s;
}

/// Compute the CIC stencil for wrapped position (x, y).
inline CicStencil cic_stencil(const mesh::GridDesc& g, double x, double y) {
  return cic_stencil_of_quotients(g, x / g.dx(), y / g.dy());
}

}  // namespace picpar::particles
