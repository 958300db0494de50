// The per-particle kernels of one PIC iteration (DESIGN.md §18): deposit
// of current and charge, field gather plus Boris kick, and the position
// push. run_pic calls each once per rank and iteration; the Section 3
// baselines (eulerian.cpp, replicated.cpp) call deposit and gather_kick.
//
// Every kernel walks its particles in blocks of at most 32. Per block,
// branch-free passes over flat arrays do the square roots and divides that
// need no table lookup (GCC vectorizes them), and a scalar pass does the
// stencil's cell and weights, the accumulation, the wrap, the key and the
// compaction, in particle order. The deposit resolves each particle's four
// vertices to destinations once (GhostExchange::resolve) and records them;
// the gather reads that record instead of resolving again. The results,
// the ghost-entry order and every message are bit for bit those of the
// per-particle helpers in particles/.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/ghost_exchange.hpp"
#include "mesh/fields.hpp"
#include "mesh/grid.hpp"
#include "particles/particle_array.hpp"
#include "scenario/scenario.hpp"
#include "sfc/index_cache.hpp"

namespace picpar::pic {

/// Scatter: deposit each particle's current q u / gamma and charge q, over
/// the cell area, with CIC weights onto the owned nodes of `f` (on the
/// local grid of `ghosts`), or into ghost slots created in first-touch
/// order. Records every particle's four destinations in `ghosts`. The
/// caller has cleared the sources and begun the ghost iteration.
void deposit(const mesh::GridDesc& grid, const particles::ParticleArray& p,
             mesh::FieldState& f, core::GhostExchange& ghosts);

/// Gather + kick: interpolate E and B at each particle from the owned
/// nodes and ghost slots (filled by fetch_fields) that the deposit
/// recorded, add the scenario driver field at virtual time t when `driver`
/// is non-null, and Boris-kick the momentum over dt. Throws
/// std::logic_error unless the record is of exactly p's particles.
void gather_kick(const mesh::GridDesc& grid, double dt,
                 const scenario::DriverSpec* driver, double t,
                 particles::ParticleArray& p, const mesh::FieldState& f,
                 const core::GhostExchange& ghosts);

/// Push: move each particle by dt u / gamma and recompute its key through
/// `keys`. Positions wrap periodically; with absorb_x, a particle that
/// leaves in x is removed instead, and the survivors keep their order.
/// Returns the number removed.
std::uint64_t push(const mesh::GridDesc& grid, double dt, bool absorb_x,
                   const sfc::IndexCache& keys, particles::ParticleArray& p);

// The block passes, over n particles (the kernels pass at most 32).
// Outputs must not overlap inputs, except that kick_block updates ux, uy,
// uz in place.

/// Deposit and gather: the grid coordinates gx = x / dx, gy = y / dy that
/// particles::cic_stencil_of_quotients takes.
void quotients_block(std::size_t n, double dx, double dy, const double* x,
                     const double* y, double* gx, double* gy);

/// Deposit: j = qv u / lorentz_gamma(u), per component.
void currents_block(std::size_t n, const double* qv, const double* ux,
                    const double* uy, const double* uz, double* jx,
                    double* jy, double* jz);

/// Kick: boris_kick_scaled(qm, ex, ey, ez, bx, by, bz, ux, uy, uz) per
/// particle.
void kick_block(std::size_t n, const double* qm, const double* ex,
                const double* ey, const double* ez, const double* bx,
                const double* by, const double* bz, double* ux, double* uy,
                double* uz);

/// Push: the unwrapped new position x + dt ux / gamma, y + dt uy / gamma.
void advance_block(std::size_t n, double dt, const double* x, const double* y,
                   const double* ux, const double* uy, const double* uz,
                   double* x_new, double* y_new);

}  // namespace picpar::pic
