#include "pic/baseline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace picpar::pic {

const scenario::Scenario& baseline_scenario(const PicParams& params,
                                            const char* who) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (params.init.total == 0) fail("init.total must be > 0");
  if (params.iterations < 0) fail("iterations must be >= 0");
  const scenario::Scenario& sc = scenario::get_scenario(params.scenario);
  if (sc.injector.enabled || sc.boundary != scenario::Boundary::kPeriodic)
    fail("scenario " + sc.name +
         " injects or absorbs particles, which a baseline cannot do");
  return sc;
}

PicResult run_baseline(
    const PicParams& params,
    const std::function<void(sim::Comm&, BaselineRank&)>& program) {
  std::vector<BaselineRank> ranks(static_cast<std::size_t>(params.nranks));
  sim::Machine machine(params.nranks, params.machine);
  PicResult result;
  result.machine = machine.run([&](sim::Comm& comm) {
    auto& out = ranks[static_cast<std::size_t>(comm.rank())];
    out.clock_end.reserve(static_cast<std::size_t>(params.iterations));
    program(comm, out);
  });
  result.total_seconds = result.machine.makespan();
  result.compute_seconds = result.machine.max_compute();

  result.iters.resize(static_cast<std::size_t>(params.iterations));
  double prev = 0.0;
  for (std::size_t i = 0; i < result.iters.size(); ++i) {
    double end = 0.0;
    for (const auto& r : ranks) end = std::max(end, r.clock_end[i]);
    auto& rec = result.iters[i];
    rec.iter = static_cast<int>(i);
    rec.exec_seconds = end - prev;
    rec.loop_seconds = rec.exec_seconds;
    prev = end;
  }
  // Rank-order merge of per-rank partials: a fixed, mode-independent
  // summation order by construction.
  for (const auto& r : ranks) {
    // picpar-lint: allow(float-reduction-order) rank-order merge
    result.field_energy += r.field_energy;
    // picpar-lint: allow(float-reduction-order) rank-order merge
    result.kinetic_energy += r.kinetic_energy;
  }
  return result;
}

}  // namespace picpar::pic
