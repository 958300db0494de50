// Ghost grid points (Section 3.2, Figs 7-8).
//
// With independent partitioning a particle's four vertex grid points may be
// owned by other processors. During the scatter phase their contributions
// accumulate locally in a *ghost table* — one entry per distinct
// off-processor grid point, so duplicated accesses are removed — and a
// single coalesced message per destination processor delivers the sums
// (communication coalescing). During the gather phase the same entries are
// reused in the opposite direction: owners return E and B at exactly the
// grid points that were requested in the scatter phase.
//
// The particle kernels resolve each stencil vertex once per iteration
// through resolve(): one *destination index* per vertex, either the owned
// local index or owned() + ghost slot. The deposit records every
// particle's four destinations (record), and the gather reads them back
// (recorded) instead of resolving again; DESIGN.md §10.
//
// Two duplicate-removal policies are implemented, as in the paper:
//   kHash   — a generation-stamped open-addressing hash table keyed by
//             global node id (memory proportional to the number of ghost
//             points, extra search time). The generation stamp makes the
//             per-iteration reset O(1) instead of O(table size); see
//             DESIGN.md §10. resolve() asks the local grid first.
//   kDirect — a direct-address table over all m grid points, holding the
//             destination index itself, so resolve() is one load (memory
//             proportional to m). Owned entries are written once, at
//             construction; the reset walks only the ghost entries that
//             were touched, so it is proportional to the ghost count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/fields.hpp"
#include "mesh/local_grid.hpp"
#include "sim/comm.hpp"
#include "util/sparse_rank.hpp"

namespace picpar::core {

enum class DedupPolicy { kHash, kDirect };

const char* dedup_policy_name(DedupPolicy p);
DedupPolicy parse_dedup_policy(const std::string& name);

class GhostExchange {
public:
  /// Deposit components per node: jx, jy, jz, rho.
  static constexpr int kDeposit = 4;
  /// Returned field components per node: ex, ey, ez, bx, by, bz.
  static constexpr int kField = 6;
  /// "No slot" sentinel returned by slot_of.
  static constexpr std::uint32_t kNoSlot = mesh::kNoLocal;

  GhostExchange(const mesh::LocalGrid& lg, DedupPolicy policy);

  DedupPolicy policy() const { return policy_; }

  /// Owned nodes of the local grid; destination indices below this are
  /// owned local indices, the rest are owned() + ghost slot.
  std::uint32_t owned() const { return owned_; }

  /// Reset the accumulation table for a new iteration and invalidate the
  /// destination record. Cost is proportional to the previous iteration's
  /// ghost count (kDirect) or O(1) (kHash).
  void begin_iteration();

  /// Destination index of node `gid`: its owned local index, or
  /// owned() + slot for the ghost slot, created on first touch. kDirect
  /// answers with one table load; kHash asks the local grid, then hashes.
  std::uint32_t resolve(std::uint64_t gid) {
    if (policy_ == DedupPolicy::kDirect) [[likely]] {
      const std::uint32_t d = direct_[static_cast<std::size_t>(gid)];
      if (d != kNoSlot) [[likely]] return d;
    } else {
      const std::uint32_t l = lg_->local_of(gid);  // kNoLocal is above all
      if (l < owned_) return l;
    }
    return owned_ + ghost_slot(gid);
  }

  /// Slot index for off-processor node `gid`; creates the entry on first
  /// touch. Throws std::logic_error for an owned node. Slot indices are
  /// stable for the rest of the iteration (unlike deposit_data pointers,
  /// which move when the table grows) — callers must store the index.
  std::uint32_t deposit_slot_index(std::uint64_t gid);

  /// Accumulator (kDeposit doubles) for a slot index from deposit_slot_index.
  double* deposit_data(std::uint32_t slot) {
    return &deposit_[static_cast<std::size_t>(slot) * kDeposit];
  }

  /// Accumulator slot (kDeposit doubles) for off-processor node `gid`;
  /// creates the entry on first touch. Must not be called for owned nodes.
  double* deposit_slot(std::uint64_t gid) {
    return deposit_data(deposit_slot_index(gid));
  }

  /// Slot previously created for `gid` this iteration, kNoSlot if absent
  /// or owned.
  std::uint32_t slot_of(std::uint64_t gid) const { return find_slot(gid); }

  /// Room for the deposit to record n particles' destinations, four per
  /// particle in CicStencil vertex order. The capacity persists across
  /// iterations.
  std::uint32_t* record(std::size_t n);

  /// The record of exactly n particles. Throws std::logic_error when the
  /// last record was of another count or begin_iteration has run since.
  const std::uint32_t* recorded(std::size_t n) const;

  /// Number of distinct ghost grid points this iteration.
  std::size_t entries() const { return gids_.size(); }

  /// Scatter flush: one message per destination processor carrying
  /// (gid, 4 sums) records; owners add them into f's source arrays.
  /// Also records, on the owner side, who asked for what — needed by
  /// fetch_fields.
  void flush_scatter(sim::Comm& comm, mesh::FieldState& f);

  /// Gather fetch: owners send (ex..bz) for every node requested in the
  /// scatter flush; afterwards field_slot() serves the ghost values.
  void fetch_fields(sim::Comm& comm, const mesh::FieldState& f);

  /// Field values (kField doubles) for a slot index, valid after
  /// fetch_fields.
  const double* field_data(std::uint32_t slot) const {
    return &field_[static_cast<std::size_t>(slot) * kField];
  }

  /// Field values (kField doubles) previously fetched for node `gid`;
  /// nullptr if the node was never deposited to this iteration.
  const double* field_slot(std::uint64_t gid) const;

  /// Resident bytes held by the ghost tables: slot storage, the lookup
  /// structure (hash or direct), the destination record, the persistent
  /// routing scratch, and the high-water mark of the per-call message
  /// staging (send tables built in flush_scatter, reply buffers in
  /// fetch_fields — transient, but a real part of the rank's peak
  /// footprint that an earlier version of this accounting missed).
  /// Capacities, not sizes — this is what the rank's memory budget pays
  /// for, since scratch capacity persists across iterations.
  std::size_t memory_bytes() const;

private:
  std::uint32_t find_slot(std::uint64_t gid) const;  ///< kNoSlot if absent
  /// Slot of non-owned node `gid`, created on first touch.
  std::uint32_t ghost_slot(std::uint64_t gid);
  void hash_insert(std::uint64_t gid, std::uint32_t slot);
  void hash_grow();

  const mesh::LocalGrid* lg_;
  DedupPolicy policy_;
  std::uint32_t owned_;

  // Entry storage (slot-indexed).
  std::vector<std::uint64_t> gids_;
  std::vector<double> deposit_;  // kDeposit per slot
  std::vector<double> field_;    // kField per slot

  // kHash lookup: open-addressing, linear probing, power-of-two size. An
  // entry is live only when its stamp equals gen_, so begin_iteration
  // resets the whole table by bumping gen_ (uint64 — never wraps).
  struct HashEntry {
    std::uint64_t gid = 0;
    std::uint32_t slot = 0;
    std::uint64_t gen = 0;  // 0 = never written (gen_ starts at 1)
  };
  std::vector<HashEntry> hash_;
  std::size_t hash_mask_ = 0;
  std::uint64_t gen_ = 1;

  // kDirect lookup: the destination index per gid, kNoSlot if untouched.
  std::vector<std::uint32_t> direct_;

  // The deposit's destination record (4 per particle) and the particle
  // count it holds; kNoRecord after begin_iteration.
  static constexpr std::size_t kNoRecord = ~std::size_t{0};
  std::vector<std::uint32_t> dest_;
  std::size_t dest_count_ = kNoRecord;

  // Scatter-flush routing, reused by fetch_fields. Sparse in the owner
  // ranks this rank's ghosts actually touch (its curve neighbors), not the
  // world size; per-owner capacity persists across iterations so
  // steady-state flushes do not reallocate.
  util::SparseRankMap<std::vector<std::uint32_t>> rank_slots_;
  struct OwnerRequest {
    int src = 0;
    std::vector<std::uint32_t> locals;  // my owned local node indices
  };
  std::vector<OwnerRequest> requests_;  // who asked me for what
  /// High-water bytes of the transient per-call message staging (scatter
  /// send tables + gather reply buffers); folded into memory_bytes().
  std::size_t peak_msg_bytes_ = 0;
};

}  // namespace picpar::core
