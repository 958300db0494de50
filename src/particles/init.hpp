// Initial particle distributions.
//
// The paper evaluates two cases: particles uniform over the domain, and a
// highly irregular distribution "concentrated in the center of the domain"
// (Fig 15). Both get a thermal velocity spread plus an optional bulk drift;
// the drift makes the Lagrangian particle subdomains wander away from their
// mesh subdomains over time, which is exactly the effect the redistribution
// machinery (Figs 16-20) responds to.
#pragma once

#include <cstdint>

#include "mesh/grid.hpp"
#include "particles/particle_array.hpp"
#include "util/rng.hpp"

namespace picpar::particles {

struct InitParams {
  std::uint64_t total = 0;       ///< global particle count
  double vth = 0.05;             ///< thermal spread of u per component
  double drift_ux = 0.0;         ///< bulk drift, x
  double drift_uy = 0.0;         ///< bulk drift, y
  double sigma_fraction = 0.08;  ///< gaussian: sigma as a fraction of domain
  /// Target plasma frequency of the mean density; sets the macro-particle
  /// charge magnitude so the field solve stays resolved (omega_p * dt must
  /// be well below 2). <= 0 keeps the charge passed to generate().
  double omega_p = 0.2;
  std::uint64_t seed = 12345;
};

/// The generator families behind the scenario library's uniform,
/// irregular_beam and two_stream loadouts (src/scenario).
enum class Distribution { kUniform, kGaussian, kTwoStream };

/// Macro-particle charge magnitude that realizes plasma frequency omega_p
/// at mean density total/(lx*ly):  q = omega_p * sqrt(m * lx * ly / total).
double macro_charge(const mesh::GridDesc& grid, std::uint64_t total,
                    double mass, double omega_p);

/// Generate the global particle population deterministically (identical on
/// every rank for a given seed). The caller partitions the result. When
/// params.omega_p > 0 the species charge is set to
/// -macro_charge(grid, total, mass, omega_p), overriding `charge`.
ParticleArray generate(Distribution dist, const mesh::GridDesc& grid,
                       const InitParams& params, double charge = -1.0,
                       double mass = 1.0);

}  // namespace picpar::particles
