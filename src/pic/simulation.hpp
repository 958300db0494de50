// The paper's parallel PIC algorithm: direct Lagrangian particle movement
// with independent partitioning of the particle and mesh arrays, dynamic
// alignment via space-filling-curve indexing, and runtime redistribution.
//
// run_pic() builds the simulated machine, runs the SPMD program on every
// rank and aggregates per-iteration records. Physics (deposition, field
// solve, push) executes numerically; time is virtual, charged through the
// two-level cost model.
#pragma once

#include <string>
#include <vector>

#include "pic/config.hpp"
#include "pic/result.hpp"

namespace picpar::pic {

/// Run the full simulation described by `params`. Deterministic for a
/// given configuration (same seeds, same schedule, same virtual clocks).
PicResult run_pic(const PicParams& params);

/// Parse a crash schedule spec "rank@vtime[,rank@vtime...]" (e.g.
/// "2@0.5,5@1.25") into fault-model crash points. Empty string => empty
/// schedule; malformed entries throw std::invalid_argument.
std::vector<sim::CrashPoint> parse_crash_schedule(const std::string& spec);

/// Fold the PICPAR_CRASH_* environment variables into a fault config:
/// PICPAR_CRASH_RANKS ("rank@vtime,..."), PICPAR_CRASH_PROB,
/// PICPAR_CRASH_MAX_T (per-rank crash probability and latest crash time),
/// PICPAR_CRASH_LEASE (failure-detection lease seconds). Unset variables
/// leave the corresponding fields untouched; a value that is not wholly a
/// finite number throws std::invalid_argument naming the variable.
void apply_crash_env(sim::FaultConfig& cfg);

}  // namespace picpar::pic
