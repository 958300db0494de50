// Hilbert-index-based particle distribution and redistribution
// (Section 5.1) — the central machinery of the paper.
//
// distribute():   full parallel sample sort of particles by curve key,
//                 followed by order-maintaining load balance. Used for the
//                 initial distribution and as the non-incremental baseline
//                 (Fig 11's "distribution algorithm at each step").
//
// redistribute(): bucket-based incremental sorting (Fig 12). Exploits the
//                 bucket boundaries remembered from the previous sort:
//                 most particles still fall in their previous bucket (the
//                 motion per iteration is incremental), so per-bucket sorts
//                 are cheap (often a no-op sortedness check) and only
//                 particles that crossed a processor boundary travel.
//
// All communication goes through the simulated Comm, so both the work
// (comparisons/moves, charged as compute ops) and the traffic are accounted
// under the paper's machine model.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/balancer.hpp"
#include "core/sort_util.hpp"
#include "mesh/grid.hpp"
#include "particles/particle_array.hpp"
#include "sfc/curve.hpp"
#include "sfc/index_cache.hpp"
#include "sim/comm.hpp"

namespace picpar::core {

struct PartitionerConfig {
  int buckets_per_rank = 16;  ///< L in the paper's Fig 12
  int samples_per_rank = 32;  ///< oversampling for the sample sort
  /// Balancer policy spec (core/balancer.hpp): "lagrange" (the paper's
  /// sample sort + order-maintaining balance), "eulerian" (particle-
  /// weighted cell-aligned cuts) or "sfcweight[:A]" (weighted-element SFC
  /// splitting). Weighted balancers replace the splitter derivation and
  /// skip the exact balance step; bounds stay cell-aligned.
  std::string balancer = "lagrange";
};

struct RedistReport {
  bool incremental = false;
  SortWork work;                    ///< local sorting/merging work
  std::uint64_t sent_particles = 0;  ///< moved to another rank
  double seconds = 0.0;              ///< virtual time this rank spent
};

/// Process-wide count of splitter sample sets that distribute() has sorted.
/// The ranks of one distribute share the sort, so each call adds one
/// whatever p is; tests read it to check that.
std::uint64_t splitter_sample_sorts();

class ParticlePartitioner {
public:
  /// `keys` is the cell -> curve-index table of `curve` on `grid`; it is
  /// read-only, so every rank of a run can share one (DESIGN.md §17).
  ParticlePartitioner(const sfc::Curve& curve, const mesh::GridDesc& grid,
                      std::shared_ptr<const sfc::IndexCache> keys,
                      PartitionerConfig cfg = {});
  /// Builds a table of its own.
  ParticlePartitioner(const sfc::Curve& curve, const mesh::GridDesc& grid,
                      PartitionerConfig cfg = {});

  const sfc::Curve& curve() const { return *curve_; }
  const PartitionerConfig& config() const { return cfg_; }

  /// Recompute every particle's key from its position (cell -> curve index).
  void assign_keys(sim::Comm& comm, particles::ParticleArray& p) const;

  /// Full distribution: sample sort + balance. Resets incremental state.
  RedistReport distribute(sim::Comm& comm, particles::ParticleArray& p);

  /// Incremental redistribution; falls back to distribute() when no
  /// previous state exists. Keys must be current (assign_keys or the push
  /// phase's per-particle update).
  RedistReport redistribute(sim::Comm& comm, particles::ParticleArray& p);

  /// Inclusive upper key bound of each rank's range after the last
  /// (re)distribution; empty before the first.
  const std::vector<std::uint64_t>& rank_upper_bounds() const {
    return global_bounds_;
  }

  /// Rank owning `key` under the current bounds: rank r owns keys in
  /// (bounds[r-1], bounds[r]], rank 0 also owns key 0. Requires state from
  /// a prior (re)distribution. Used by the injector to decide, from the
  /// globally agreed batch, which emitted particles are locally kept.
  int owner_of(std::uint64_t key) const;

  const BalancerPolicy& balancer() const { return *balancer_; }

  bool has_state() const { return have_state_; }

  /// Resident bytes held by the redistribution scratch (send buckets,
  /// receive staging) and the bucket-boundary tables. Capacities, not
  /// sizes — scratch capacity persists across iterations by design, so
  /// this is the steady-state memory the partitioner pins per rank.
  std::size_t scratch_bytes() const;

private:
  void charge_work(sim::Comm& comm, const SortWork& w) const;
  void refresh_state(sim::Comm& comm, const particles::ParticleArray& p);
  /// Recompute the local bucket boundaries only (weighted balancers keep
  /// their computed cell-aligned global bounds instead of the data-derived
  /// bounds refresh_state would install).
  void refresh_local_buckets(const particles::ParticleArray& p);
  /// Destination rank for a key under the current global bounds.
  int dest_rank(std::uint64_t key, SortWork& w) const;

  const sfc::Curve* curve_;
  mesh::GridDesc grid_;
  PartitionerConfig cfg_;
  /// Bounds policy (shared so the partitioner stays copyable).
  std::shared_ptr<const BalancerPolicy> balancer_;
  /// Memoized cell -> curve-index table backing assign_keys (DESIGN.md §10).
  std::shared_ptr<const sfc::IndexCache> key_cache_;

  // Scratch reused across redistributions so steady-state iterations do not
  // reallocate (capacity persists; contents are per-call).
  std::vector<std::vector<particles::ParticleRec>> bucket_scratch_;
  std::vector<particles::ParticleRec> recv_scratch_;

  bool have_state_ = false;
  /// Interior bucket boundary keys of the local sorted array (L-1 values).
  std::vector<std::uint64_t> local_bounds_;
  /// Inclusive upper key of every rank's range (p values, non-decreasing).
  std::vector<std::uint64_t> global_bounds_;
};

}  // namespace picpar::core
