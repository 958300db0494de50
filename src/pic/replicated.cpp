#include "pic/replicated.hpp"

#include <algorithm>

#include "mesh/maxwell.hpp"
#include "particles/pusher.hpp"
#include "pic/baseline.hpp"
#include "pic/kernels.hpp"

namespace picpar::pic {

using mesh::FieldState;
using mesh::LocalGrid;
using particles::ParticleArray;
using sim::Comm;
using sim::Phase;

namespace {

/// Colocated-curl updates over the full replicated fields, computing only
/// node ids in [b, e). `lg` is the one-rank grid, so a local index is a
/// global node id.
void half_b(const LocalGrid& lg, FieldState& f, std::uint64_t b,
            std::uint64_t e, double dt) {
  const double i2dx = 0.5 / lg.grid().dx();
  const double i2dy = 0.5 / lg.grid().dy();
  for (std::uint64_t id = b; id < e; ++id) {
    const auto E = lg.east(id), W = lg.west(id), N = lg.north(id),
               S = lg.south(id);
    const double cx = (f.ez[N] - f.ez[S]) * i2dy;
    const double cy = -(f.ez[E] - f.ez[W]) * i2dx;
    const double cz = (f.ey[E] - f.ey[W]) * i2dx - (f.ex[N] - f.ex[S]) * i2dy;
    f.bx[id] -= 0.5 * dt * cx;
    f.by[id] -= 0.5 * dt * cy;
    f.bz[id] -= 0.5 * dt * cz;
  }
}

void step_e(const LocalGrid& lg, FieldState& f, std::uint64_t b,
            std::uint64_t e, double dt) {
  const double i2dx = 0.5 / lg.grid().dx();
  const double i2dy = 0.5 / lg.grid().dy();
  for (std::uint64_t id = b; id < e; ++id) {
    const auto E = lg.east(id), W = lg.west(id), N = lg.north(id),
               S = lg.south(id);
    const double cx = (f.bz[N] - f.bz[S]) * i2dy;
    const double cy = -(f.bz[E] - f.bz[W]) * i2dx;
    const double cz = (f.by[E] - f.by[W]) * i2dx - (f.bx[N] - f.bx[S]) * i2dy;
    f.ex[id] += dt * (cx - f.jx[id]);
    f.ey[id] += dt * (cy - f.jy[id]);
    f.ez[id] += dt * (cz - f.jz[id]);
  }
}

/// Element-wise global sum of several full arrays (binomial allreduce).
void global_sum(Comm& comm, std::vector<std::vector<double>*> arrays) {
  std::vector<double> packed;
  std::size_t total = 0;
  for (auto* a : arrays) total += a->size();
  packed.reserve(total);
  for (auto* a : arrays) packed.insert(packed.end(), a->begin(), a->end());
  packed = comm.allreduce(std::move(packed),
                          [](double a, double b) { return a + b; });
  std::size_t pos = 0;
  for (auto* a : arrays) {
    std::copy(packed.begin() + static_cast<long>(pos),
              packed.begin() + static_cast<long>(pos + a->size()), a->begin());
    pos += a->size();
  }
}

/// Concatenate per-rank chunks [b, e) of several full arrays to everyone.
void global_concat(Comm& comm, std::uint64_t b, std::uint64_t e,
                   const std::vector<std::uint64_t>& bounds,
                   std::vector<std::vector<double>*> arrays) {
  std::vector<double> mine;
  mine.reserve((e - b) * arrays.size());
  for (auto* a : arrays)
    mine.insert(mine.end(), a->begin() + static_cast<long>(b),
                a->begin() + static_cast<long>(e));
  std::vector<std::size_t> offsets;
  auto cat = comm.allgatherv(mine, &offsets);
  for (int r = 0; r < comm.size(); ++r) {
    const std::uint64_t rb = bounds[static_cast<std::size_t>(r)];
    const std::uint64_t re = bounds[static_cast<std::size_t>(r) + 1];
    std::size_t pos = offsets[static_cast<std::size_t>(r)];
    for (auto* a : arrays) {
      std::copy(cat.begin() + static_cast<long>(pos),
                cat.begin() + static_cast<long>(pos + (re - rb)),
                a->begin() + static_cast<long>(rb));
      pos += re - rb;
    }
  }
}

}  // namespace

PicResult run_replicated(const PicParams& params) {
  const scenario::Scenario& sc = baseline_scenario(params, "run_replicated");
  const mesh::GridDesc grid = params.grid;
  const ParticleArray global = sc.loadout(grid, params.init);
  const double dt =
      params.dt > 0.0 ? params.dt : mesh::MaxwellSolver::max_dt(grid);
  const double delta = params.machine.delta;
  const PhaseCosts& pc = params.costs;
  const std::uint64_t m = grid.nodes();
  const scenario::DriverSpec* driver =
      sc.driver.enabled ? &sc.driver : nullptr;
  // The whole mesh as one rank's subdomain: owned nodes in gid order, no
  // ghosts. Read-only, so every rank shares it.
  const mesh::GridPartition whole = mesh::GridPartition::block(grid, 1, 1);
  const LocalGrid lg(whole, 0);

  return run_baseline(params, [&](Comm& comm, BaselineRank& out) {
    const int rank = comm.rank();
    const int p = comm.size();

    FieldState f(lg);
    scenario::apply_field_seed(sc.field_seed, grid, lg, f);
    // Every stencil vertex is owned, so the kernels only resolve owned
    // nodes through it and keep their destination record in it.
    core::GhostExchange no_ghosts(lg, core::DedupPolicy::kHash);
    // Field-solve chunk boundaries (contiguous node-id ranges).
    std::vector<std::uint64_t> bounds(static_cast<std::size_t>(p) + 1);
    for (int r = 0; r <= p; ++r)
      bounds[static_cast<std::size_t>(r)] =
          static_cast<std::uint64_t>(r) * m / static_cast<std::uint64_t>(p);
    const std::uint64_t cb = bounds[static_cast<std::size_t>(rank)];
    const std::uint64_t ce = bounds[static_cast<std::size_t>(rank) + 1];

    // Lagrangian assignment: run_pic's initial slice, fixed forever.
    ParticleArray mine(global.species());
    append_initial_slice(global, rank, p, mine);

    for (int iter = 0; iter < params.iterations; ++iter) {
      // ---- Scatter: local deposition + global element-wise sum ----
      comm.set_phase(Phase::kScatter);
      f.clear_sources();
      const std::size_t n = mine.size();
      deposit(grid, mine, f, no_ghosts);
      comm.charge(static_cast<double>(4 * n) * pc.scatter_per_vertex * delta);
      global_sum(comm, {&f.jx, &f.jy, &f.jz, &f.rho});

      // ---- Field solve: chunk update + global concatenation ----
      comm.set_phase(Phase::kFieldSolve);
      if (params.solver == FieldSolveKind::kMaxwell) {
        half_b(lg, f, cb, ce, dt);
        global_concat(comm, cb, ce, bounds, {&f.bx, &f.by, &f.bz});
        step_e(lg, f, cb, ce, dt);
        global_concat(comm, cb, ce, bounds, {&f.ex, &f.ey, &f.ez});
        half_b(lg, f, cb, ce, dt);
        global_concat(comm, cb, ce, bounds, {&f.bx, &f.by, &f.bz});
        comm.charge(static_cast<double>(ce - cb) * pc.field_per_node * delta);
      }

      // ---- Gather + push: purely local ----
      comm.set_phase(Phase::kGather);
      gather_kick(grid, dt, driver, static_cast<double>(iter) * dt, mine, f,
                  no_ghosts);
      comm.charge(static_cast<double>(4 * n) * pc.gather_per_vertex * delta);

      comm.set_phase(Phase::kPush);
      for (std::size_t i = 0; i < n; ++i)
        particles::advance_position(grid, mine, i, dt);
      comm.charge(static_cast<double>(n) * pc.push_per_particle * delta);
      comm.set_phase(Phase::kOther);
      out.clock_end.push_back(comm.clock());
    }

    // Replicated fields: count the field energy on rank 0 only.
    if (rank == 0) out.field_energy = f.energy(lg);
    out.kinetic_energy = mine.kinetic_energy();
  });
}

}  // namespace picpar::pic
