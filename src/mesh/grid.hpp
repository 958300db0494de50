// Global computational mesh descriptor.
//
// The mesh is a regular nx-by-ny grid of cells over a periodic physical
// domain [0, lx) x [0, ly). Grid points (field nodes) sit at cell corners;
// with periodic boundaries node (i, j) identifies with (i mod nx, j mod ny),
// so there are exactly nx*ny distinct nodes and node id == cell id of the
// cell whose lower-left corner it is.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace picpar::mesh {

/// q truncated toward zero for q in [-2^63, 2^63), and INT64_MIN for every
/// other q, NaN included: what x86-64's cvttsd2si returns. A plain cast is
/// undefined outside that range, and a faulted position can make a grid
/// quotient anything; a plain cast to an unsigned type may also compile to
/// another instruction at another ISA level. The value is the same on
/// every target.
inline std::int64_t trunc_to_int64(double q) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!(q >= -kTwo63 && q < kTwo63))
    return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(q);
}

/// Cell coordinate of a grid quotient q = x / dx: the low 32 bits of
/// trunc_to_int64(q), so 0 for q outside [-2^63, 2^63) and for NaN.
/// Callers clamp it into the grid.
inline std::uint32_t cell_coord(double q) {
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(trunc_to_int64(q)));
}

struct GridDesc {
  std::uint32_t nx = 0;  ///< cells in x
  std::uint32_t ny = 0;  ///< cells in y
  double lx = 1.0;       ///< physical width
  double ly = 1.0;       ///< physical height

  GridDesc() = default;
  GridDesc(std::uint32_t nx_, std::uint32_t ny_, double lx_ = 0.0,
           double ly_ = 0.0)
      : nx(nx_), ny(ny_), lx(lx_), ly(ly_) {
    if (nx == 0 || ny == 0)
      throw std::invalid_argument("GridDesc: dims must be > 0");
    // Default physical size: unit cells.
    if (lx <= 0.0) lx = static_cast<double>(nx);
    if (ly <= 0.0) ly = static_cast<double>(ny);
  }

  std::uint64_t nodes() const {
    return static_cast<std::uint64_t>(nx) * ny;
  }
  std::uint64_t cells() const { return nodes(); }

  double dx() const { return lx / static_cast<double>(nx); }
  double dy() const { return ly / static_cast<double>(ny); }

  std::uint64_t node_id(std::uint32_t ix, std::uint32_t iy) const {
    return static_cast<std::uint64_t>(iy) * nx + ix;
  }
  std::uint32_t node_x(std::uint64_t id) const {
    return static_cast<std::uint32_t>(id % nx);
  }
  std::uint32_t node_y(std::uint64_t id) const {
    return static_cast<std::uint32_t>(id / nx);
  }

  /// Periodic neighbor node ids.
  std::uint64_t east(std::uint64_t id) const {
    const auto x = node_x(id), y = node_y(id);
    return node_id((x + 1) % nx, y);
  }
  std::uint64_t west(std::uint64_t id) const {
    const auto x = node_x(id), y = node_y(id);
    return node_id((x + nx - 1) % nx, y);
  }
  std::uint64_t north(std::uint64_t id) const {
    const auto x = node_x(id), y = node_y(id);
    return node_id(x, (y + 1) % ny);
  }
  std::uint64_t south(std::uint64_t id) const {
    const auto x = node_x(id), y = node_y(id);
    return node_id(x, (y + ny - 1) % ny);
  }

  /// Wrap a physical position into the periodic domain. A value already in
  /// [0, lx) is returned as is, which is bit for bit what the general
  /// formula returns for it (DESIGN.md §18), so most calls cost no divide.
  double wrap_x(double x) const {
    if (x >= 0.0 && x < lx) return x;
    x -= lx * static_cast<double>(trunc_to_int64(x / lx));
    if (x < 0.0) x += lx;
    if (x >= lx) x -= lx;
    return x;
  }
  double wrap_y(double y) const {
    if (y >= 0.0 && y < ly) return y;
    y -= ly * static_cast<double>(trunc_to_int64(y / ly));
    if (y < 0.0) y += ly;
    if (y >= ly) y -= ly;
    return y;
  }

  /// Cell containing wrapped position (x, y).
  std::uint64_t cell_of(double x, double y) const {
    return cell_of(x, y, dx(), dy());
  }

  /// Same, for a caller that computed the cell size (dx(), dy()) once for
  /// many lookups.
  std::uint64_t cell_of(double x, double y, double dx, double dy) const {
    auto cx = cell_coord(x / dx);
    auto cy = cell_coord(y / dy);
    if (cx >= nx) cx = nx - 1;  // guards x == lx after rounding
    if (cy >= ny) cy = ny - 1;
    return node_id(cx, cy);
  }
};

}  // namespace picpar::mesh
