// Assignment of mesh nodes (== cells) to ranks.
//
// Two families, both BLOCK in the sense of the paper (each rank owns one
// contiguous run of some 1-D ordering of the cells):
//   * block(px, py): classic 2-D Cartesian blocks;
//   * curve(c): cells sorted by a space-filling-curve index and cut into
//     equal runs (Fig 10) — sub-blocks follow the curve through the mesh.
//
// The partition is global, read-only and identical on every rank, so a
// single instance serves all simulated ranks: run_pic builds one per group
// size and every rank's LocalGrid points at it (DESIGN.md §17).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mesh/grid.hpp"
#include "sfc/curve.hpp"

namespace picpar::mesh {

class GridPartition {
public:
  /// Classic 2-D block decomposition on a px-by-py rank grid
  /// (px * py == nranks).
  static GridPartition block(const GridDesc& grid, int px, int py);

  /// Choose a near-square rank grid automatically.
  static GridPartition block_auto(const GridDesc& grid, int nranks);

  /// Fig 10: order cells along `curve`, split into nranks equal runs.
  static GridPartition curve(const GridDesc& grid, int nranks,
                             const sfc::Curve& curve);

  const GridDesc& grid() const { return grid_; }
  int nranks() const { return nranks_; }
  const std::string& method() const { return method_; }

  int owner(std::uint64_t node_id) const {
    return owner_[static_cast<std::size_t>(node_id)];
  }
  std::span<const std::uint64_t> nodes_of(int rank) const {
    return nodes_[static_cast<std::size_t>(rank)];
  }
  std::size_t count_of(int rank) const {
    return nodes_[static_cast<std::size_t>(rank)].size();
  }

  /// Max/mean node count over ranks (1.0 == perfectly balanced).
  double imbalance() const;

private:
  GridPartition(const GridDesc& grid, int nranks, std::string method);
  void finalize();  ///< build nodes_ from owner_

  GridDesc grid_;
  int nranks_ = 0;
  std::string method_;
  std::vector<int> owner_;                       // node id -> rank
  std::vector<std::vector<std::uint64_t>> nodes_;  // rank -> sorted node ids
};

}  // namespace picpar::mesh
