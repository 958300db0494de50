// Memoized cell -> curve-index map (hot-path optimization, DESIGN.md §10).
//
// Particle indexing (Section 5.1) evaluates the space-filling curve once per
// particle per iteration in the push phase, and once per particle in every
// assign_keys pass. The curve value depends only on the (static) grid cell,
// so a flat table of nx*ny entries — one evaluation per cell — replaces the
// per-particle O(order) Hilbert walk with a single load. The table is
// read-only and the same on every rank: run_pic builds one per run and
// shares it with every rank's partitioner (DESIGN.md §17). The grid and
// curve never change during a run, so the table never invalidates; were the
// mesh ever refined, the cache would be rebuilt at that redistribution
// epoch.
#pragma once

#include <cstdint>
#include <vector>

#include "sfc/curve.hpp"

namespace picpar::sfc {

class IndexCache {
public:
  /// Evaluate `curve` at every cell of an nx-by-ny grid: O(nx*ny) curve
  /// evaluations.
  IndexCache(const Curve& curve, std::uint32_t nx, std::uint32_t ny);

  /// Curve index of cell id (node id convention: id = y * nx + x).
  std::uint64_t operator[](std::uint64_t cell) const { return keys_[cell]; }

  std::size_t size() const { return keys_.size(); }

  /// Largest index the curve produces on this grid. Curve indices need not
  /// be dense (Hilbert pads to a power-of-two square), so the index *space*
  /// [0, max_index()] can exceed the cell count — anything sized by curve
  /// index (e.g. per-cell weight histograms) must use this, not size().
  std::uint64_t max_index() const { return max_index_; }

private:
  std::vector<std::uint64_t> keys_;
  std::uint64_t max_index_ = 0;
};

}  // namespace picpar::sfc
