#include "pic/eulerian.hpp"

#include "core/ghost_exchange.hpp"
#include "mesh/local_grid.hpp"
#include "mesh/maxwell.hpp"
#include "particles/pusher.hpp"
#include "pic/baseline.hpp"
#include "pic/kernels.hpp"

namespace picpar::pic {

using core::GhostExchange;
using mesh::FieldState;
using mesh::GridPartition;
using mesh::LocalGrid;
using particles::ParticleArray;
using particles::ParticleRec;
using sim::Comm;
using sim::Phase;

namespace {
GridPartition make_partition(const PicParams& params) {
  const auto curve =
      sfc::make_curve(params.curve, params.grid.nx, params.grid.ny);
  return grid_partition(params, *curve, params.nranks);
}
}  // namespace

std::vector<std::size_t> eulerian_particle_counts(const PicParams& params) {
  const auto part = make_partition(params);
  const auto global = scenario::get_scenario(params.scenario)
                          .loadout(params.grid, params.init);
  std::vector<std::size_t> counts(static_cast<std::size_t>(params.nranks), 0);
  for (std::size_t i = 0; i < global.size(); ++i) {
    const auto cell = params.grid.cell_of(global.x[i], global.y[i]);
    ++counts[static_cast<std::size_t>(part.owner(cell))];
  }
  return counts;
}

PicResult run_eulerian(const PicParams& params) {
  const scenario::Scenario& sc = baseline_scenario(params, "run_eulerian");
  const mesh::GridDesc grid = params.grid;
  const GridPartition part = make_partition(params);
  const ParticleArray global = sc.loadout(grid, params.init);
  const double dt =
      params.dt > 0.0 ? params.dt : mesh::MaxwellSolver::max_dt(grid);
  const double delta = params.machine.delta;
  const PhaseCosts& pc = params.costs;
  const scenario::DriverSpec* driver =
      sc.driver.enabled ? &sc.driver : nullptr;

  return run_baseline(params, [&](Comm& comm, BaselineRank& out) {
    const int rank = comm.rank();
    LocalGrid lg(part, rank);
    FieldState f(lg);
    scenario::apply_field_seed(sc.field_seed, grid, lg, f);
    mesh::MaxwellSolver maxwell(lg, dt);
    GhostExchange ghosts(lg, params.dedup);

    // Eulerian assignment: every rank filters the global population for
    // particles whose cell it owns (deterministic, no communication).
    ParticleArray mine(global.species());
    for (std::size_t i = 0; i < global.size(); ++i) {
      const auto cell = grid.cell_of(global.x[i], global.y[i]);
      if (part.owner(cell) == rank) mine.push_back(global.rec(i));
    }

    for (int iter = 0; iter < params.iterations; ++iter) {
      // ---- Scatter ----
      comm.set_phase(Phase::kScatter);
      ghosts.begin_iteration();
      f.clear_sources();
      const std::size_t n = mine.size();
      deposit(grid, mine, f, ghosts);
      comm.charge(static_cast<double>(4 * n) * pc.scatter_per_vertex * delta);
      ghosts.flush_scatter(comm, f);

      // ---- Field solve ----
      comm.set_phase(Phase::kFieldSolve);
      if (params.solver == FieldSolveKind::kMaxwell) {
        maxwell.step(comm, f);
        comm.charge(static_cast<double>(lg.owned()) * pc.field_per_node *
                    delta);
      }

      // ---- Gather ----
      comm.set_phase(Phase::kGather);
      ghosts.fetch_fields(comm, f);
      gather_kick(grid, dt, driver, static_cast<double>(iter) * dt, mine, f,
                  ghosts);
      comm.charge(static_cast<double>(4 * n) * pc.gather_per_vertex * delta);

      // ---- Push + migration ----
      comm.set_phase(Phase::kPush);
      std::vector<std::vector<ParticleRec>> migrate(
          static_cast<std::size_t>(comm.size()));
      for (std::size_t i = 0; i < mine.size();) {
        particles::advance_position(grid, mine, i, dt);
        const auto cell = grid.cell_of(mine.x[i], mine.y[i]);
        const int o = part.owner(cell);
        if (o != rank) {
          migrate[static_cast<std::size_t>(o)].push_back(mine.rec(i));
          mine.swap_remove(i);
        } else {
          ++i;
        }
      }
      comm.charge(static_cast<double>(n) * pc.push_per_particle * delta);
      auto arrived = comm.all_to_many(std::move(migrate));
      for (const auto& buf : arrived)
        for (const auto& r : buf) mine.push_back(r);
      comm.set_phase(Phase::kOther);
      out.clock_end.push_back(comm.clock());
    }

    out.field_energy = f.energy(lg);
    out.kinetic_energy = mine.kinetic_energy();
  });
}

}  // namespace picpar::pic
