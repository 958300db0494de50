// Local sorting helpers shared by the distribution algorithms, with
// operation counting so redistribution *work* (not just wall time) can be
// charged to the simulated machine and compared across algorithms (Fig 11).
#pragma once

#include <cstdint>
#include <vector>

#include "particles/particle_array.hpp"

namespace picpar::core {

struct SortWork {
  std::uint64_t comparisons = 0;
  std::uint64_t moves = 0;  ///< particle record copies

  SortWork& operator+=(const SortWork& o) {
    comparisons += o.comparisons;
    moves += o.moves;
    return *this;
  }
  std::uint64_t total_ops() const { return comparisons + moves; }
};

/// Sort plain keys ascending with an LSD radix sort: one counting pass per
/// byte, over only the low bytes the widest key uses (two passes for the
/// curve indices of a 128x64 mesh, all eight once bit 63 is set).
/// Returns the same multiset order std::sort does. Counts no work: callers
/// charge the comparison sort the model assumes.
void radix_sort_keys(std::vector<std::uint64_t>& keys);

/// Sort the whole array by key (stable). Counts comparisons and the
/// permutation moves.
SortWork sort_by_key(particles::ParticleArray& p);

/// Sort records in-place by key; adaptive: verifies sortedness first
/// (n-1 comparisons) and skips the sort when already ordered — this is
/// where the incremental algorithm's advantage on mostly-sorted buckets
/// comes from.
SortWork sort_records(std::vector<particles::ParticleRec>& recs);

/// Merge k sorted runs of records into a ParticleArray (ascending key).
/// Runs must each be sorted; the output replaces p's contents.
SortWork merge_runs(std::vector<std::vector<particles::ParticleRec>>& runs,
                    particles::ParticleArray& p);

/// Hot-path variant for the incremental sort (DESIGN.md §10): merge the
/// concatenation of `buckets` (each sorted, covering disjoint ascending key
/// ranges — so the concatenation is one sorted run) with the sorted
/// `incoming` run, directly into p. Equivalent output to concatenating the
/// buckets and calling merge_runs on the two runs — bucket records win key
/// ties — but with one fewer full copy of the array and no heap: one
/// comparison per step where both runs are live, moves = total records.
SortWork merge_bucket_runs(
    const std::vector<std::vector<particles::ParticleRec>>& buckets,
    const std::vector<particles::ParticleRec>& incoming,
    particles::ParticleArray& p);

}  // namespace picpar::core
