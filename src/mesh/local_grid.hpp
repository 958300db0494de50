// Per-rank view of a partitioned mesh: owned nodes, stencil ghosts, the
// local index map, and a precomputed halo-exchange plan.
//
// Local indexing convention: owned nodes occupy [0, owned()), in ascending
// global-id order; ghost nodes occupy [owned(), owned() + ghosts()), grouped
// by owner rank and ascending global id within each group. Field arrays are
// plain std::vector<double> of size total().
//
// The halo plan is computed *without communication*: the partition is
// globally known, so both sides of every exchange derive identical, equally
// ordered send/receive lists (rank B's send list to A is exactly the set of
// B-owned nodes adjacent to A-owned nodes, sorted by global id).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <vector>

#include "mesh/partition.hpp"
#include "sim/comm.hpp"

namespace picpar::mesh {

inline constexpr std::uint32_t kNoLocal =
    std::numeric_limits<std::uint32_t>::max();

class LocalGrid {
public:
  LocalGrid(const GridPartition& part, int rank);

  const GridDesc& grid() const { return part_->grid(); }
  const GridPartition& partition() const { return *part_; }
  int rank() const { return rank_; }

  std::size_t owned() const { return owned_; }
  std::size_t ghosts() const { return ghost_gids_.size(); }
  std::size_t total() const { return owned_ + ghosts(); }

  /// Global id of local node l (owned or ghost).
  std::uint64_t gid_of(std::size_t l) const { return gids_[l]; }

  /// Local index of global node, or kNoLocal if neither owned nor ghost.
  std::uint32_t local_of(std::uint64_t gid) const {
    const std::uint64_t i = gid - local_lo_;  // wraps below the range
    return i < local_.size() ? local_[static_cast<std::size_t>(i)] : kNoLocal;
  }

  bool owns(std::uint64_t gid) const {
    const auto l = local_of(gid);
    return l != kNoLocal && l < owned_;
  }

  /// Stencil neighbors (periodic E/W/N/S) of owned node l as local indices.
  std::uint32_t east(std::size_t l) const { return stencil_[4 * l + 0]; }
  std::uint32_t west(std::size_t l) const { return stencil_[4 * l + 1]; }
  std::uint32_t north(std::size_t l) const { return stencil_[4 * l + 2]; }
  std::uint32_t south(std::size_t l) const { return stencil_[4 * l + 3]; }

  struct HaloPeer {
    int rank = 0;
    std::vector<std::uint32_t> send;  ///< owned local indices to pack
    std::vector<std::uint32_t> recv;  ///< ghost local indices to fill
  };
  const std::vector<HaloPeer>& halo_peers() const { return peers_; }

  /// Exchange ghost values of the given fields (each sized total()).
  /// One message per neighbor rank carrying all fields back-to-back —
  /// communication coalescing per Section 3.2.
  void halo_exchange(sim::Comm& comm,
                     std::initializer_list<std::vector<double>*> fields) const;

  /// Convenience: allocate a zeroed field of size total().
  std::vector<double> make_field() const {
    return std::vector<double>(total(), 0.0);
  }

private:
  const GridPartition* part_;
  int rank_;
  std::size_t owned_ = 0;
  std::vector<std::uint64_t> gids_;        // local -> global (owned + ghosts)
  std::vector<std::uint64_t> ghost_gids_;  // ghost part of gids_
  /// global -> local, a direct table over [local_lo_, highest owned or
  /// ghost gid]: the rank's own stretch of the grid, not all of it.
  std::vector<std::uint32_t> local_;
  std::uint64_t local_lo_ = 0;
  std::vector<std::uint32_t> stencil_;     // 4 per owned node
  std::vector<HaloPeer> peers_;
};

}  // namespace picpar::mesh
