// Baseline: direct Eulerian method on grid partitioning (Gledhill & Storey,
// Section 3 of the paper).
//
// The mesh is partitioned (block or curve) and every particle lives on the
// rank that owns its cell; after each push, particles that crossed into
// another rank's subdomain migrate there. Communication is local and small
// (boundary vertices + migrants), but nothing balances the particle load:
// with an irregular distribution a few ranks hold most particles and the
// per-iteration time is set by the most loaded rank — the load-imbalance
// column of Table 1.
#pragma once

#include "pic/config.hpp"
#include "pic/result.hpp"

namespace picpar::pic {

/// Run the Eulerian grid-partitioning baseline. policy/partitioner fields
/// of `params` are ignored (assignment follows the grid, always). Throws
/// std::invalid_argument for a scenario with an injector or an absorbing
/// wall, for fault injection and for validation.
PicResult run_eulerian(const PicParams& params);

}  // namespace picpar::pic
