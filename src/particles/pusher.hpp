// Particle pushers (the paper's "push phase").
//
// The primary pusher is the relativistic Boris rotation, the standard
// second-order scheme for electromagnetic PIC; a non-relativistic leapfrog
// is provided for electrostatic runs and tests.
//
// Everything here is inline: these run once per particle per iteration,
// and pic/kernels builds its vectorized block passes from the same
// formulas (DESIGN.md §18).
#pragma once

#include "mesh/grid.hpp"
#include "particles/particle_array.hpp"

namespace picpar::particles {

/// Fields interpolated at a particle location.
struct LocalFields {
  double ex = 0.0, ey = 0.0, ez = 0.0;
  double bx = 0.0, by = 0.0, bz = 0.0;
};

/// The Boris kick's half-step factor q dt / (2 m).
inline double boris_factor(double q, double m, double dt) {
  return 0.5 * q * dt / m;
}

/// Relativistic Boris push of momentum u by fields (ex..bz), given the
/// half-step factor qmdt2 = boris_factor(q, m, dt). The one Boris formula:
/// boris_kick and the block kick of pic/kernels both call it.
inline void boris_kick_scaled(double qmdt2, double ex, double ey, double ez,
                              double bx, double by, double bz, double& ux,
                              double& uy, double& uz) {
  // Half electric acceleration.
  double umx = ux + qmdt2 * ex;
  double umy = uy + qmdt2 * ey;
  double umz = uz + qmdt2 * ez;

  // Magnetic rotation at the mid-step gamma.
  const double gamma = lorentz_gamma(umx, umy, umz);
  const double tx = qmdt2 * bx / gamma;
  const double ty = qmdt2 * by / gamma;
  const double tz = qmdt2 * bz / gamma;
  const double t2 = tx * tx + ty * ty + tz * tz;
  const double sx = 2.0 * tx / (1.0 + t2);
  const double sy = 2.0 * ty / (1.0 + t2);
  const double sz = 2.0 * tz / (1.0 + t2);

  const double upx = umx + (umy * tz - umz * ty);
  const double upy = umy + (umz * tx - umx * tz);
  const double upz = umz + (umx * ty - umy * tx);

  umx += upy * sz - upz * sy;
  umy += upz * sx - upx * sz;
  umz += upx * sy - upy * sx;

  // Second half electric acceleration.
  ux = umx + qmdt2 * ex;
  uy = umy + qmdt2 * ey;
  uz = umz + qmdt2 * ez;
}

/// Relativistic Boris push of momentum u by fields over dt
/// (charge q, mass m; c = 1). Returns the updated momentum.
inline void boris_kick(double q, double m, double dt, const LocalFields& f,
                       double& ux, double& uy, double& uz) {
  boris_kick_scaled(boris_factor(q, m, dt), f.ex, f.ey, f.ez, f.bx, f.by,
                    f.bz, ux, uy, uz);
}

/// Advance position of particle i by its velocity u/gamma over dt, with
/// periodic wrapping, and refresh nothing else.
inline void advance_position(const mesh::GridDesc& g, ParticleArray& p,
                             std::size_t i, double dt) {
  const double gamma = p.gamma(i);
  p.x[i] = g.wrap_x(p.x[i] + dt * p.ux[i] / gamma);
  p.y[i] = g.wrap_y(p.y[i] + dt * p.uy[i] / gamma);
}

/// Advance position with an absorbing boundary in x and periodic wrapping
/// in y (open-ended beam scenarios: particles stream in at one edge and
/// leave at the other). Returns false when the particle left the domain in
/// x — the caller removes (absorbs) it; its position is left unchanged.
inline bool advance_position_absorb_x(const mesh::GridDesc& g,
                                      ParticleArray& p, std::size_t i,
                                      double dt) {
  const double gamma = p.gamma(i);
  const double nx = p.x[i] + dt * p.ux[i] / gamma;
  if (nx < 0.0 || nx >= g.lx) return false;
  p.x[i] = nx;
  p.y[i] = g.wrap_y(p.y[i] + dt * p.uy[i] / gamma);
  return true;
}

}  // namespace picpar::particles
