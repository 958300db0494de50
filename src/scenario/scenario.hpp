// Scenario library (DESIGN.md §14): named physical setups a PIC run can be
// launched from. A scenario bundles everything the engines previously spread
// over ad-hoc switches — the initial particle loadout, the species table,
// an optional analytic field seed, an optional time-dependent driver field,
// the domain boundary kind, and an optional boundary injector that emits
// fresh particles every iteration.
//
// Determinism contract: every piece is a pure function of the run
// configuration. Loadouts and injector batches draw from seeded streams
// that every rank evaluates identically (no communication, no rank-
// dependent draws), field seeds are functions of the *global* node
// coordinate, and the driver field is a function of (virtual time,
// position). Sequential and parallel execution therefore stay bit-identical
// for every scenario, and the legacy path (PicParams::scenario == "") is
// untouched byte-for-byte.
//
// Registry:
//   uniform          the paper's uniform case (migrated from src/pic)
//   irregular_beam   the paper's center-concentrated irregular case
//   two_stream       counter-streaming beams (migrated)
//   weibel           two species (light anisotropic electrons, heavy cold
//                    ions), seeded transverse B — Weibel-like filamentation
//   beam_into_plasma thermal plasma plus an electron beam injected at the
//                    x = 0 edge; the +x boundary absorbs (open boundary)
//   moving_hotspot   uniform plasma stirred by a rotating Gaussian
//                    attractor driver field
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/fields.hpp"
#include "mesh/grid.hpp"
#include "mesh/local_grid.hpp"
#include "particles/init.hpp"
#include "particles/particle_array.hpp"

namespace picpar::scenario {

struct SpeciesDesc {
  std::string label;    ///< for reports/tests; not part of the physics
  double mass = 1.0;    ///< species mass (charge is set by the loadout,
                        ///< which scales it from InitParams::omega_p)
};

/// Deterministic boundary source: every iteration, `rate(total)` particles
/// are emitted near the x = 0 edge with a directed drift into the domain.
/// Every rank derives the identical batch from (seed, iteration) alone and
/// keeps only the particles whose key lands in its partition range.
struct InjectorSpec {
  bool enabled = false;
  /// Emitted count per iteration = max(1, round(total * rate_fraction)).
  double rate_fraction = 0.0;
  int species = 0;          ///< species id of emitted particles
  double vth = 0.02;        ///< thermal spread of the emitted momenta
  double drift_ux = 0.3;    ///< directed momentum into the domain
  double edge_fraction = 0.05;  ///< emitted x in [0, edge_fraction * lx)
};

/// Time-dependent analytic driver: a rotating attractive Gaussian hotspot
/// added to the interpolated E field right before the Boris kick. Pure
/// function of (virtual time, position) — no state, no communication.
struct DriverSpec {
  bool enabled = false;
  double amp = 0.0;             ///< restoring-field strength
  double omega = 0.0;           ///< angular speed of the hotspot center
  double sigma_fraction = 0.15; ///< Gaussian envelope radius / lx
};

enum class SeedField { kEx, kBz };

/// Deterministic initial field perturbation: a sinusoid along x applied to
/// owned nodes as a function of their *global* coordinate, so every
/// decomposition (and every post-recovery group size) seeds identically.
struct FieldSeedSpec {
  bool enabled = false;
  SeedField target = SeedField::kEx;
  double amp = 0.0;
  int mode_x = 1;  ///< wavenumber in units of 2*pi/lx
};

enum class Boundary {
  kPeriodic,  ///< both axes wrap (the paper's setup)
  kAbsorbX,   ///< particles leaving through x = 0 or x = lx are absorbed
};

struct Scenario {
  std::string name;
  std::string summary;
  std::vector<SpeciesDesc> species;
  Boundary boundary = Boundary::kPeriodic;
  InjectorSpec injector;
  DriverSpec driver;
  FieldSeedSpec field_seed;
  /// Generate the global initial population (identical on every rank).
  /// Multi-species loadouts seed key = species id — the species-in-key
  /// encoding's low bits, which assign_keys preserves thereafter.
  particles::ParticleArray (*loadout)(const mesh::GridDesc&,
                                      const particles::InitParams&) = nullptr;
};

/// Look up a scenario by name; nullptr when unknown.
const Scenario* find_scenario(const std::string& name);

/// Like find_scenario but throws std::invalid_argument, listing the
/// registry names, on unknown names.
const Scenario& get_scenario(const std::string& name);

/// Registry names in registration order.
std::vector<std::string> scenario_names();

/// The injected particle batch for one iteration: identical on every rank
/// (seeded by init.seed and the iteration number only). Returned records
/// carry key = species id; the caller finishes the species-in-key encoding
/// from the position. Empty when the scenario has no injector.
std::vector<particles::ParticleRec> injector_batch(
    const Scenario& sc, const mesh::GridDesc& grid,
    const particles::InitParams& init, int iter);

/// Emitted count per iteration for this scenario/population (0 when the
/// injector is disabled).
std::uint64_t injector_rate(const Scenario& sc, std::uint64_t total);

struct DriverField {
  double ex = 0.0;
  double ey = 0.0;
};

/// Driver contribution to the E field at (x, y) at virtual time t.
DriverField driver_field(const DriverSpec& d, const mesh::GridDesc& grid,
                         double t, double x, double y);

/// Apply the scenario's initial field perturbation to the owned nodes.
void apply_field_seed(const FieldSeedSpec& fs, const mesh::GridDesc& grid,
                      const mesh::LocalGrid& lg, mesh::FieldState& f);

}  // namespace picpar::scenario
