// Quickstart: run a small parallel PIC simulation on the simulated CM-5
// and print a per-phase summary.
//
//   ./quickstart --ranks 32 --particles 8192 --iters 100 --policy sar
//
// This is the smallest complete use of the public API: configure a run,
// execute it, inspect the result.
#include <iostream>

#include "pic/simulation.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("quickstart", "Minimal parallel PIC run on the simulated machine");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  auto particles = cli.flag<long>("particles", 8192, "global particle count");
  auto iters = cli.flag<int>("iters", 100, "iterations");
  auto policy = cli.flag<std::string>("policy", "sar",
                                      "static | periodic:K | sar");
  auto scenario = cli.flag<std::string>(
      "scenario", "irregular_beam",
      "uniform | irregular_beam | two_stream | weibel | beam_into_plasma | "
      "moving_hotspot");
  auto curve = cli.flag<std::string>("curve", "hilbert",
                                     "hilbert | snake | morton | rowmajor");
  cli.parse(argc, argv);

  pic::PicParams params;
  params.grid = mesh::GridDesc(64, 32);
  params.nranks = *ranks;
  params.scenario = *scenario;
  params.init.total = static_cast<std::uint64_t>(*particles);
  params.init.drift_ux = 0.1;
  params.init.drift_uy = 0.05;
  params.curve = sfc::parse_curve_kind(*curve);
  params.iterations = *iters;
  params.policy = *policy;
  params.machine = sim::CostModel::cm5();

  std::cout << "Running " << *iters << " iterations of a "
            << params.grid.nx << "x" << params.grid.ny << " PIC simulation, "
            << *particles << " particles on " << *ranks
            << " simulated CM-5 nodes (" << *scenario << ", " << *curve
            << " indexing, policy " << *policy << ")...\n\n";

  const auto r = pic::run_pic(params);

  Table summary({"metric", "value"});
  summary.set_title("Run summary (virtual time)");
  summary.row().add("total time (s)").add(r.total_seconds, 3);
  summary.row().add("computation (s)").add(r.compute_seconds, 3);
  summary.row().add("overhead (s)").add(r.overhead_seconds(), 3);
  summary.row().add("mean iteration (s)").add(r.mean_iter_seconds(), 4);
  summary.row().add("redistributions")
      .add(static_cast<long long>(r.redistributions));
  summary.row().add("redistribution time (s)").add(r.redist_seconds_total, 3);
  summary.row().add("initial distribution (s)")
      .add(r.initial_distribution_seconds, 3);
  summary.row().add("field energy").add(r.field_energy, 4);
  summary.row().add("kinetic energy").add(r.kinetic_energy, 2);
  summary.print(std::cout);

  // Per-phase traffic of rank 0, to show where communication happens.
  std::cout << "\nRank 0 phase summary:\n"
            << r.machine.ranks[0].stats.summary();
  return 0;
}
