// What the two Section 3 baselines (eulerian.cpp, replicated.cpp) share:
// the input check and the fold of per-rank reports into a PicResult.
#pragma once

#include <functional>
#include <vector>

#include "pic/config.hpp"
#include "pic/result.hpp"
#include "scenario/scenario.hpp"
#include "sim/comm.hpp"

namespace picpar::pic {

/// The scenario a baseline named `who` runs. Throws std::invalid_argument
/// for an empty population, negative iterations, an unknown scenario, or a
/// scenario with an injector or an absorbing wall: neither baseline can
/// place injected particles or remove absorbed ones.
const scenario::Scenario& baseline_scenario(const PicParams& params,
                                            const char* who);

/// What one baseline rank reports.
struct BaselineRank {
  std::vector<double> clock_end;  ///< virtual clock at each iteration's end
  double field_energy = 0.0;
  double kinetic_energy = 0.0;
};

/// Run `program` on params.nranks ranks of params.machine and fold the
/// reports: an iteration ends when its last rank's clock does, and the
/// energies merge in rank order.
PicResult run_baseline(
    const PicParams& params,
    const std::function<void(sim::Comm&, BaselineRank&)>& program);

}  // namespace picpar::pic
