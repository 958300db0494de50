#include "mesh/local_grid.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

namespace picpar::mesh {

namespace {
constexpr int kHaloTag = 100;
}

LocalGrid::LocalGrid(const GridPartition& part, int rank)
    : part_(&part), rank_(rank) {
  const GridDesc& g = part.grid();
  const auto mine = part.nodes_of(rank);
  owned_ = mine.size();
  gids_.assign(mine.begin(), mine.end());

  // The index table spans the lowest to the highest owned or ghost gid.
  // Ghosts are the stencil neighbours not owned here, so the owned nodes
  // and their neighbours span the same range, and the table can be sized
  // before the ghost lists exist. Allocating it after them instead changes
  // the heap layout enough to cost fresh page faults in every set-up
  // (DESIGN.md §19).
  if (owned_ > 0) {
    std::uint64_t lo = gids_[0], hi = gids_[0];
    for (const auto id : gids_)
      for (const auto nb :
           {id, g.east(id), g.west(id), g.north(id), g.south(id)}) {
        lo = std::min(lo, nb);
        hi = std::max(hi, nb);
      }
    local_lo_ = lo;
    local_.assign(static_cast<std::size_t>(hi - lo + 1), kNoLocal);
  }
  for (std::size_t l = 0; l < owned_; ++l)
    local_[static_cast<std::size_t>(gids_[l] - local_lo_)] =
        static_cast<std::uint32_t>(l);

  // Discover ghosts: stencil neighbors of owned nodes not owned by us,
  // grouped by owner then gid so both exchange sides agree on ordering.
  std::map<int, std::vector<std::uint64_t>> ghosts_by_owner;
  auto consider = [&](std::uint64_t nb) {
    const int o = part.owner(nb);
    if (o == rank_) return;
    ghosts_by_owner[o].push_back(nb);
  };
  for (std::size_t l = 0; l < owned_; ++l) {
    const std::uint64_t id = gids_[l];
    consider(g.east(id));
    consider(g.west(id));
    consider(g.north(id));
    consider(g.south(id));
  }
  for (auto& [owner, list] : ghosts_by_owner) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  for (auto& [owner, list] : ghosts_by_owner) {
    HaloPeer peer;
    peer.rank = owner;
    for (const auto gid : list) {
      const auto l = static_cast<std::uint32_t>(gids_.size());
      gids_.push_back(gid);
      ghost_gids_.push_back(gid);
      local_[static_cast<std::size_t>(gid - local_lo_)] = l;
      peer.recv.push_back(l);
    }
    peers_.push_back(std::move(peer));
  }

  // Send lists: my owned nodes adjacent to nodes owned by each peer —
  // exactly the peer's ghost list from us, in the same (gid-sorted) order.
  std::map<int, std::vector<std::uint64_t>> sends_by_peer;
  for (std::size_t l = 0; l < owned_; ++l) {
    const std::uint64_t id = gids_[l];
    const std::uint64_t nbrs[4] = {g.east(id), g.west(id), g.north(id),
                                   g.south(id)};
    for (const auto nb : nbrs) {
      const int o = part.owner(nb);
      if (o != rank_) sends_by_peer[o].push_back(id);
    }
  }
  for (auto& [peer_rank, list] : sends_by_peer) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    auto it = std::find_if(peers_.begin(), peers_.end(),
                           [r = peer_rank](const HaloPeer& p) { return p.rank == r; });
    if (it == peers_.end()) {
      // Possible in principle with exotic partitions (we border them but
      // own none of their stencil needs is impossible on a symmetric
      // 4-stencil, so this indicates a bug).
      throw std::logic_error("LocalGrid: asymmetric halo peer set");
    }
    it->send.reserve(list.size());
    for (const auto gid : list)
      it->send.push_back(local_of(gid));
  }

  // Stencil map for owned nodes.
  stencil_.resize(4 * owned_);
  for (std::size_t l = 0; l < owned_; ++l) {
    const std::uint64_t id = gids_[l];
    stencil_[4 * l + 0] = local_of(g.east(id));
    stencil_[4 * l + 1] = local_of(g.west(id));
    stencil_[4 * l + 2] = local_of(g.north(id));
    stencil_[4 * l + 3] = local_of(g.south(id));
  }
}

void LocalGrid::halo_exchange(
    sim::Comm& comm, std::initializer_list<std::vector<double>*> fields) const {
  for (const auto* f : fields)
    if (f->size() != total())
      throw std::invalid_argument("halo_exchange: field has wrong size");

  // Post all sends first (buffered), then receive; exact-source matching
  // keeps streams separate. Values are packed into, and copied out of, the
  // message buffers themselves.
  constexpr std::size_t kValue = sizeof(double);
  for (const auto& peer : peers_) {
    if (peer.send.empty()) continue;
    const std::size_t bytes = peer.send.size() * fields.size() * kValue;
    sim::Payload msg(bytes, [&](std::byte* out) {
      for (const auto* f : fields)
        for (const auto l : peer.send) {
          std::memcpy(out, &(*f)[l], kValue);
          out += kValue;
        }
    });
    comm.send_bytes(peer.rank, kHaloTag, std::move(msg));
  }
  for (const auto& peer : peers_) {
    if (peer.recv.empty()) continue;
    const sim::Payload msg = comm.recv_payload<double>(peer.rank, kHaloTag);
    if (msg.size() != peer.recv.size() * fields.size() * kValue)
      throw std::runtime_error("halo_exchange: bad message length");
    const std::byte* in = msg.data();
    for (auto* f : fields)
      for (const auto l : peer.recv) {
        std::memcpy(&(*f)[l], in, kValue);
        in += kValue;
      }
  }
}

}  // namespace picpar::mesh
