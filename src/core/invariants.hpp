// Runtime invariant validation for PIC runs.
//
// Checksummed messaging catches what the wire corrupts; this layer catches
// everything the transport cannot see — host memory corruption, logic bugs
// in redistribution, physics blow-ups. The checker runs as a collective
// (all ranks call check() together and agree on the verdict via an
// allreduce of the violation mask), so a detected violation can trigger a
// consistent global recovery: roll back to the last good checkpoint and
// force a redistribution (see pic/simulation.cpp).
//
// Invariants:
//   kCount    global particle count equals the reference count
//   kFinite   every stored particle field is finite
//   kDomain   every position lies inside the periodic domain
//   kKey      every sort key matches the key recomputed from the position
//   kSorted   local keys are non-decreasing and bounded by the rank's
//             partition range (checked right after a redistribution)
//   kBalance  max per-rank count within tolerance of the mean
//   kEnergy   total energy finite and within a factor of the reference
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/grid.hpp"
#include "particles/particle_array.hpp"
#include "sfc/curve.hpp"
#include "sim/comm.hpp"

namespace picpar::core {

enum class Invariant : std::uint32_t {
  kCount = 1u << 0,
  kFinite = 1u << 1,
  kDomain = 1u << 2,
  kKey = 1u << 3,
  kSorted = 1u << 4,
  kBalance = 1u << 5,
  kEnergy = 1u << 6,
};

const char* invariant_name(Invariant inv);

struct InvariantConfig {
  /// Max-over-mean particle-count ratio allowed before kBalance fires;
  /// 0 disables the check.
  double balance_tolerance = 0.0;
  /// Absolute slack added to the balance bound (tolerates granularity on
  /// tiny populations).
  double balance_slack = 16.0;
  /// Total energy may grow to at most this factor of the reference before
  /// kEnergy fires; 0 disables the check.
  double energy_factor = 0.0;
  /// Verify key/position consistency (one curve evaluation per particle).
  bool verify_keys = true;
};

struct InvariantViolation {
  Invariant kind = Invariant::kCount;
  int iter = 0;
  double measured = 0.0;  ///< offending value (count, ratio, energy, ...)
  double limit = 0.0;     ///< the bound it broke
  std::string detail;
};

struct InvariantReport {
  /// OR of Invariant bits; identical on every rank after check().
  std::uint32_t mask = 0;
  /// This rank's local violations (details differ per rank by design).
  std::vector<InvariantViolation> violations;

  bool ok() const { return mask == 0; }
  bool has(Invariant inv) const {
    return (mask & static_cast<std::uint32_t>(inv)) != 0;
  }
};

class InvariantChecker {
public:
  InvariantChecker(const sfc::Curve& curve, const mesh::GridDesc& grid,
                   InvariantConfig cfg = {});

  /// Reference values the conservation checks compare against.
  void set_reference_count(std::uint64_t global_count);
  void set_reference_energy(double total_energy);
  std::uint64_t reference_count() const { return ref_count_; }

  /// Collective: every rank passes its local particles; all ranks return
  /// the same mask. `rank_upper_bounds` (may be null) enables the kSorted
  /// partition-range check — pass it on iterations that redistributed.
  /// `local_energy` < 0 skips the energy check for this call.
  InvariantReport check(sim::Comm& comm, const particles::ParticleArray& p,
                        int iter,
                        const std::vector<std::uint64_t>* rank_upper_bounds,
                        double local_energy = -1.0);

private:
  const sfc::Curve* curve_;
  mesh::GridDesc grid_;
  InvariantConfig cfg_;
  bool have_ref_count_ = false;
  std::uint64_t ref_count_ = 0;
  bool have_ref_energy_ = false;
  double ref_energy_ = 0.0;
};

}  // namespace picpar::core
