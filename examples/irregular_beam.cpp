// Irregular beam: the paper's stress case. A center-concentrated particle
// blob drifts across the periodic domain; without redistribution the
// Lagrangian particle subdomains decouple from their mesh subdomains and
// communication climbs. This example runs the same physics under three
// policies and prints the per-iteration time series side by side, plus the
// ghost-point footprint — a textual version of Figs 15-17.
#include <iostream>

#include "pic/simulation.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("irregular_beam",
          "Drifting irregular blob under static/periodic/sar policies");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  auto particles = cli.flag<long>("particles", 16384, "global particle count");
  auto iters = cli.flag<int>("iters", 300, "iterations");
  auto period = cli.flag<int>("period", 25, "periodic policy interval");
  auto stride = cli.flag<int>("stride", 20, "print every k-th iteration");
  cli.parse(argc, argv);

  auto base = [&] {
    pic::PicParams p;
    p.grid = mesh::GridDesc(128, 64);
    p.nranks = *ranks;
    p.scenario = "irregular_beam";
    p.init.total = static_cast<std::uint64_t>(*particles);
    p.init.sigma_fraction = 0.06;
    p.init.drift_ux = 0.15;
    p.init.drift_uy = 0.08;
    p.iterations = *iters;
    p.machine = sim::CostModel::cm5();
    return p;
  }();

  struct Run {
    std::string policy;
    pic::PicResult result;
  };
  std::vector<Run> runs;
  for (const std::string& policy :
       {std::string("static"), "periodic:" + std::to_string(*period),
        std::string("sar")}) {
    auto params = base;
    params.policy = policy;
    std::cout << "running policy " << policy << "...\n";
    runs.push_back({policy, pic::run_pic(params)});
  }

  Table trace({"iter", "static (ms)", "periodic (ms)", "sar (ms)",
               "static ghosts", "sar ghosts"});
  trace.set_title("Per-iteration execution time and max ghost points");
  for (int i = 0; i < *iters; i += *stride) {
    const auto idx = static_cast<std::size_t>(i);
    trace.row()
        .add(static_cast<long long>(i))
        .add(1e3 * runs[0].result.iters[idx].exec_seconds, 2)
        .add(1e3 * runs[1].result.iters[idx].exec_seconds, 2)
        .add(1e3 * runs[2].result.iters[idx].exec_seconds, 2)
        .add(static_cast<std::size_t>(runs[0].result.iters[idx].max_ghost_entries))
        .add(static_cast<std::size_t>(runs[2].result.iters[idx].max_ghost_entries));
  }
  trace.print(std::cout);

  Table totals({"policy", "total (s)", "overhead (s)", "redistributions"});
  totals.set_title("Totals");
  for (const auto& run : runs)
    totals.row()
        .add(run.policy)
        .add(run.result.total_seconds, 2)
        .add(run.result.overhead_seconds(), 2)
        .add(static_cast<long long>(run.result.redistributions));
  totals.print(std::cout);

  std::cout << "\nPhysics check (independent of policy): kinetic energy "
            << runs[0].result.kinetic_energy << " / "
            << runs[1].result.kinetic_energy << " / "
            << runs[2].result.kinetic_energy << "\n";
  return 0;
}
