// Explicit finite-difference Maxwell solver on the partitioned mesh
// (the paper's "field solve" phase: each grid point needs data from its
// four neighboring grid points).
//
// Colocated leapfrog scheme in 2-D (d/dz == 0), full six components (2d3v):
//   B^{n+1/2} = B^n     - dt/2 * curl E^n
//   E^{n+1}   = E^n     + dt   * (curl B^{n+1/2} - J)
//   B^{n+1}   = B^{n+1/2} - dt/2 * curl E^{n+1}
// with central differences over the periodic 4-neighborhood. Requires
// dt <= cfl * min(dx, dy) / sqrt(2).
#pragma once

#include "mesh/fields.hpp"
#include "sim/comm.hpp"

namespace picpar::mesh {

class MaxwellSolver {
public:
  MaxwellSolver(const LocalGrid& lg, double dt);

  /// Advance fields one step on the owned nodes; performs the halo
  /// exchanges it needs. J (and rho) must already hold this step's sources
  /// on owned nodes.
  void step(sim::Comm& comm, FieldState& f) const;

  /// The half steps of step(), in place on local nodes [b, e): B -= dt/2
  /// curl E, and E += dt (curl B - J). The curl reads each node's stencil
  /// neighbors, whose values must be current.
  void half_step_b(FieldState& f, std::size_t b, std::size_t e) const;
  void step_e(FieldState& f, std::size_t b, std::size_t e) const;

  double dt() const { return dt_; }

  /// Largest stable time step for this grid.
  static double max_dt(const GridDesc& g);

private:
  const LocalGrid* lg_;
  double dt_;
  double inv2dx_;
  double inv2dy_;
};

}  // namespace picpar::mesh
