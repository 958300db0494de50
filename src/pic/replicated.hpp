// Baseline: Lubeck & Faber's replicated-grid direct Lagrangian PIC
// (Section 3 of the paper).
//
// Every rank holds the FULL mesh. The scatter phase deposits locally and
// then element-wise global-sums the source arrays over all ranks; the field
// solve is split into row chunks and a global concatenation broadcasts the
// results. Gather and push are purely local. Efficient on small machines;
// the global operations on the full mesh dominate as p grows — the
// behaviour the paper cites as the motivation for distributed meshes.
#pragma once

#include "pic/config.hpp"
#include "pic/result.hpp"

namespace picpar::pic {

/// Run the replicated-grid baseline. Partitioning/policy fields of
/// `params` are ignored (particles stay on their initial rank forever,
/// grid is replicated). Throws std::invalid_argument for the Poisson
/// solver, for a scenario with an injector or an absorbing wall, for fault
/// injection and for validation.
PicResult run_replicated(const PicParams& params);

}  // namespace picpar::pic
