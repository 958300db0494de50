// Declarative parameter grids for the sweep driver.
//
// A grid file is a flat INI-ish text: one `key = v1, v2, ...` line per
// axis, `#` comments and blank lines ignored. Axes cross-multiply; a file
// with 2 policies, 3 rank counts and 2 seeds expands to 12 jobs. Axes left
// out keep a single default value, so the smallest useful grid is one line.
//
//   # Fig 16-style comparison
//   mesh       = 64x32, 128x64
//   particles  = 20000
//   scenario   = uniform, irregular_beam, weibel
//   policy     = static, periodic:10, sar+eulerian
//   curve      = hilbert
//   ranks      = 16, 32
//   seed       = 1
//   iterations = 60
//
// Expansion is deterministic: axes iterate in the fixed order below
// (scenario outermost, iterations innermost), each axis in file order, so
// the same file always yields the same job list in the same order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pic/config.hpp"

namespace picpar::sweep {

/// One parsed grid: every axis non-empty (defaults applied at parse time).
struct SweepGrid {
  /// Scenario-library names (uniform, irregular_beam, weibel, ...); see
  /// src/scenario.
  std::vector<std::string> scenario{"uniform"};
  std::vector<std::string> mesh{"128x64"};    ///< "NXxNY" grid sizes
  std::vector<std::uint64_t> particles{20000};
  std::vector<int> ranks{32};
  std::vector<std::string> curve{"hilbert"};  ///< space-filling curves
  /// Redistribution specs: "decision" or "decision+balancer"
  /// (e.g. "sar", "periodic:10+sfcweight:2"); see core/balancer.hpp.
  std::vector<std::string> policy{"sar"};
  std::vector<std::uint64_t> seed{1};
  std::vector<int> iterations{60};
};

/// One expanded grid point: a human-readable label plus the full config.
struct GridJob {
  std::string label;  ///< "scenario/mesh/pN/rN/curve/policy/sN/iN"
  pic::PicParams params;
};

/// Parse grid-file text. Throws std::runtime_error naming the offending
/// line for unknown keys, duplicate keys, empty value lists, or malformed
/// numbers.
SweepGrid parse_grid(std::string_view text);

/// The paper's Section 6 base setup on an nx x ny mesh: a drifting plasma
/// (vth 0.05), the Hilbert curve, curve decomposition, the Maxwell solver
/// and the CM-5 cost preset. Grid-file sweeps and the figure benches
/// (bench::paper_params) both start here, so equal grid points share
/// cache entries.
pic::PicParams paper_base(std::uint32_t nx, std::uint32_t ny);

/// Cross-multiply the axes into concrete jobs on paper_base. Throws
/// std::runtime_error for values no axis accepts (bad scenario, curve, or
/// policy spec, zero ranks, mesh not "NXxNY").
std::vector<GridJob> expand_grid(const SweepGrid& grid);

}  // namespace picpar::sweep
