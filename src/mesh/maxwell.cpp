#include "mesh/maxwell.hpp"

#include <cmath>
#include <stdexcept>

namespace picpar::mesh {

double FieldState::energy(const LocalGrid& lg) const {
  const double cell = lg.grid().dx() * lg.grid().dy();
  // picpar-lint: allow(float-reduction-order) fixed local-index sum
  double e = 0.0;
  for (std::size_t l = 0; l < lg.owned(); ++l) {
    e += ex[l] * ex[l] + ey[l] * ey[l] + ez[l] * ez[l];
    e += bx[l] * bx[l] + by[l] * by[l] + bz[l] * bz[l];
  }
  return 0.5 * e * cell;
}

MaxwellSolver::MaxwellSolver(const LocalGrid& lg, double dt)
    : lg_(&lg),
      dt_(dt),
      inv2dx_(0.5 / lg.grid().dx()),
      inv2dy_(0.5 / lg.grid().dy()) {
  if (dt <= 0.0) throw std::invalid_argument("MaxwellSolver: dt must be > 0");
  if (dt > max_dt(lg.grid()))
    throw std::invalid_argument("MaxwellSolver: dt violates CFL limit");
}

double MaxwellSolver::max_dt(const GridDesc& g) {
  return 0.9 * std::min(g.dx(), g.dy()) / std::sqrt(2.0);
}

// 2-D (d/dz = 0) curls with central differences, fused into the updates.
// Each half step reads one field and writes the other, so updating in place
// leaves every curl as it was before the step.
void MaxwellSolver::half_step_b(FieldState& f, std::size_t b,
                                std::size_t e) const {
  const auto& lg = *lg_;
  for (std::size_t l = b; l < e; ++l) {
    const auto E = lg.east(l), W = lg.west(l), N = lg.north(l),
               S = lg.south(l);
    const double cx = (f.ez[N] - f.ez[S]) * inv2dy_;
    const double cy = -(f.ez[E] - f.ez[W]) * inv2dx_;
    const double cz =
        (f.ey[E] - f.ey[W]) * inv2dx_ - (f.ex[N] - f.ex[S]) * inv2dy_;
    f.bx[l] -= 0.5 * dt_ * cx;
    f.by[l] -= 0.5 * dt_ * cy;
    f.bz[l] -= 0.5 * dt_ * cz;
  }
}

void MaxwellSolver::step_e(FieldState& f, std::size_t b,
                           std::size_t e) const {
  const auto& lg = *lg_;
  for (std::size_t l = b; l < e; ++l) {
    const auto E = lg.east(l), W = lg.west(l), N = lg.north(l),
               S = lg.south(l);
    const double cx = (f.bz[N] - f.bz[S]) * inv2dy_;
    const double cy = -(f.bz[E] - f.bz[W]) * inv2dx_;
    const double cz =
        (f.by[E] - f.by[W]) * inv2dx_ - (f.bx[N] - f.bx[S]) * inv2dy_;
    f.ex[l] += dt_ * (cx - f.jx[l]);
    f.ey[l] += dt_ * (cy - f.jy[l]);
    f.ez[l] += dt_ * (cz - f.jz[l]);
  }
}

void MaxwellSolver::step(sim::Comm& comm, FieldState& f) const {
  const auto& lg = *lg_;
  lg.halo_exchange(comm, {&f.ex, &f.ey, &f.ez});
  half_step_b(f, 0, lg.owned());
  lg.halo_exchange(comm, {&f.bx, &f.by, &f.bz});
  step_e(f, 0, lg.owned());
  lg.halo_exchange(comm, {&f.ex, &f.ey, &f.ez});
  half_step_b(f, 0, lg.owned());
}

}  // namespace picpar::mesh
