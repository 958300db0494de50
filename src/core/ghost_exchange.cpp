#include "core/ghost_exchange.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace picpar::core {

namespace {
constexpr int kGatherTag = 200;

struct DepositRec {
  std::uint64_t gid;
  double v[GhostExchange::kDeposit];
};
static_assert(sizeof(DepositRec) == 8 + 8 * GhostExchange::kDeposit);

// Fibonacci hashing; the multiply spreads entropy into the high bits, the
// xor-fold brings it back down for the low-bit mask.
inline std::size_t hash_gid(std::uint64_t gid) {
  std::uint64_t h = gid * 0x9E3779B97F4A7C15ull;
  h ^= h >> 31;
  return static_cast<std::size_t>(h);
}
}  // namespace

const char* dedup_policy_name(DedupPolicy p) {
  return p == DedupPolicy::kHash ? "hash" : "direct";
}

GhostExchange::GhostExchange(const mesh::LocalGrid& lg, DedupPolicy policy)
    : lg_(&lg),
      policy_(policy),
      owned_(static_cast<std::uint32_t>(lg.owned())) {
  if (policy_ == DedupPolicy::kDirect) {
    direct_.assign(static_cast<std::size_t>(lg.grid().nodes()), kNoSlot);
    // Owned entries hold their local index for the whole run.
    for (std::uint32_t l = 0; l < owned_; ++l)
      direct_[static_cast<std::size_t>(lg.gid_of(l))] = l;
  }
}

void GhostExchange::begin_iteration() {
  if (policy_ == DedupPolicy::kHash) {
    ++gen_;  // O(1) table reset: stale entries now fail the stamp check
  } else {
    // Reset only the ghost entries touched last iteration; owned entries
    // never change.
    for (const auto gid : gids_)
      direct_[static_cast<std::size_t>(gid)] = kNoSlot;
  }
  gids_.clear();
  deposit_.clear();
  field_.clear();
  dest_count_ = kNoRecord;
  for (auto& e : rank_slots_) e.value.clear();
  requests_.clear();
}

std::uint32_t GhostExchange::find_slot(std::uint64_t gid) const {
  if (policy_ == DedupPolicy::kHash) {
    if (hash_.empty()) return kNoSlot;
    std::size_t h = hash_gid(gid) & hash_mask_;
    while (true) {
      const HashEntry& e = hash_[h];
      if (e.gen != gen_) return kNoSlot;  // empty for this generation
      if (e.gid == gid) return e.slot;
      h = (h + 1) & hash_mask_;
    }
  }
  const std::uint32_t d = direct_[static_cast<std::size_t>(gid)];
  return d == kNoSlot || d < owned_ ? kNoSlot : d - owned_;
}

void GhostExchange::hash_grow() {
  const std::size_t ns = std::max<std::size_t>(64, hash_.size() * 2);
  hash_.assign(ns, HashEntry{});
  hash_mask_ = ns - 1;
  // Reinsert the live entries; slot s holds gids_[s].
  for (std::uint32_t s = 0; s < gids_.size(); ++s) {
    std::size_t h = hash_gid(gids_[s]) & hash_mask_;
    while (hash_[h].gen == gen_) h = (h + 1) & hash_mask_;
    hash_[h] = HashEntry{gids_[s], s, gen_};
  }
}

void GhostExchange::hash_insert(std::uint64_t gid, std::uint32_t slot) {
  // Keep load factor under 0.7 so linear probes stay short.
  if ((gids_.size() + 1) * 10 > hash_.size() * 7) hash_grow();
  std::size_t h = hash_gid(gid) & hash_mask_;
  while (hash_[h].gen == gen_) h = (h + 1) & hash_mask_;
  hash_[h] = HashEntry{gid, slot, gen_};
}

std::uint32_t GhostExchange::ghost_slot(std::uint64_t gid) {
  std::uint32_t slot = find_slot(gid);
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(gids_.size());
    if (policy_ == DedupPolicy::kHash)
      hash_insert(gid, slot);
    else
      direct_[static_cast<std::size_t>(gid)] = owned_ + slot;
    gids_.push_back(gid);
    deposit_.resize(deposit_.size() + kDeposit, 0.0);
  }
  return slot;
}

std::uint32_t GhostExchange::deposit_slot_index(std::uint64_t gid) {
  // Under kDirect an owned node's entry is its local index for the whole
  // run; a slot there would overwrite it, and the next reset erase it.
  if (lg_->owns(gid))
    throw std::logic_error("GhostExchange: deposit_slot_index of owned node " +
                           std::to_string(gid));
  return ghost_slot(gid);
}

std::uint32_t* GhostExchange::record(std::size_t n) {
  if (dest_.size() < 4 * n) dest_.resize(4 * n);
  dest_count_ = n;
  return dest_.data();
}

const std::uint32_t* GhostExchange::recorded(std::size_t n) const {
  if (dest_count_ != n)
    throw std::logic_error("GhostExchange: no destination record of " +
                           std::to_string(n) + " particles this iteration");
  return dest_.data();
}

void GhostExchange::flush_scatter(sim::Comm& comm, mesh::FieldState& f) {
  const auto& part = lg_->partition();

  // Group slots by owner rank; rank_slots_ is a member so per-owner
  // capacity persists across iterations and doubles as the routing table
  // that fetch_fields replays. Sparse: only owners this rank's ghosts
  // touch get an entry, so the table is O(neighbors) at any world size.
  for (auto& e : rank_slots_) e.value.clear();
  for (std::uint32_t s = 0; s < gids_.size(); ++s)
    rank_slots_.ref(part.owner(gids_[s])).push_back(s);

  // Build one coalesced record buffer per touched owner, in ascending rank
  // order (the same message order the dense table produced).
  std::vector<std::pair<int, std::vector<DepositRec>>> send;
  std::size_t staged = 0;
  for (const auto& e : rank_slots_) {
    const auto& slots = e.value;
    if (slots.empty()) continue;
    if (e.rank == comm.rank())
      throw std::logic_error("GhostExchange: deposit to owned node");
    std::vector<DepositRec> buf;
    buf.reserve(slots.size());
    for (const auto s : slots) {
      DepositRec rec;
      rec.gid = gids_[s];
      for (int k = 0; k < kDeposit; ++k)
        rec.v[k] = deposit_[static_cast<std::size_t>(s) * kDeposit + k];
      buf.push_back(rec);
    }
    staged += buf.capacity() * sizeof(DepositRec);
    send.emplace_back(e.rank, std::move(buf));
  }
  staged += send.capacity() * sizeof(send[0]);
  peak_msg_bytes_ = std::max(peak_msg_bytes_, staged);

  auto recv = comm.all_to_many(std::move(send));

  // Owner side: add contributions into the source arrays and remember the
  // request lists for the gather reply. Pairs arrive in ascending source
  // order, matching the dense loop this replaced.
  for (const auto& [src, buf] : recv) {
    if (buf.empty()) continue;
    OwnerRequest req;
    req.src = src;
    req.locals.reserve(buf.size());
    for (const auto& rec : buf) {
      const auto l = lg_->local_of(rec.gid);
      if (l == mesh::kNoLocal || l >= lg_->owned())
        throw std::runtime_error("GhostExchange: received non-owned node");
      f.jx[l] += rec.v[0];
      f.jy[l] += rec.v[1];
      f.jz[l] += rec.v[2];
      f.rho[l] += rec.v[3];
      req.locals.push_back(l);
    }
    requests_.push_back(std::move(req));
  }
}

void GhostExchange::fetch_fields(sim::Comm& comm, const mesh::FieldState& f) {
  // Owner side: reply with field values in request order, packed straight
  // into the message buffer. The staging high-water mark keeps counting the
  // reply's bytes, as when it was built in a vector first.
  constexpr std::size_t kSlotBytes = kField * sizeof(double);
  for (const auto& req : requests_) {
    const std::size_t bytes = req.locals.size() * kSlotBytes;
    peak_msg_bytes_ = std::max(peak_msg_bytes_, bytes);
    sim::Payload reply(bytes, [&](std::byte* out) {
      for (const auto l : req.locals) {
        const double v[kField] = {f.ex[l], f.ey[l], f.ez[l],
                                  f.bx[l], f.by[l], f.bz[l]};
        std::memcpy(out, v, kSlotBytes);
        out += kSlotBytes;
      }
    });
    comm.send_bytes(req.src, kGatherTag, std::move(reply));
  }

  // Ghost side: receive per touched owner rank (ascending, matching the
  // send order of flush_scatter), and copy each slot's values from the
  // message buffer into field_.
  field_.assign(gids_.size() * kField, 0.0);
  for (const auto& e : rank_slots_) {
    const auto& slots = e.value;
    if (slots.empty()) continue;
    const sim::Payload msg = comm.recv_payload<double>(e.rank, kGatherTag);
    if (msg.size() != slots.size() * kSlotBytes)
      throw std::runtime_error("GhostExchange: bad gather reply length");
    const std::byte* in = msg.data();
    for (const auto s : slots) {
      std::memcpy(&field_[std::size_t{s} * kField], in, kSlotBytes);
      in += kSlotBytes;
    }
  }
}

const double* GhostExchange::field_slot(std::uint64_t gid) const {
  const auto slot = find_slot(gid);
  if (slot == kNoSlot) return nullptr;
  return &field_[static_cast<std::size_t>(slot) * kField];
}

std::size_t GhostExchange::memory_bytes() const {
  std::size_t bytes = gids_.capacity() * sizeof(std::uint64_t) +
                      deposit_.capacity() * sizeof(double) +
                      field_.capacity() * sizeof(double) +
                      hash_.capacity() * sizeof(HashEntry) +
                      direct_.capacity() * sizeof(std::uint32_t) +
                      dest_.capacity() * sizeof(std::uint32_t);
  bytes += rank_slots_.memory_bytes();
  for (const auto& e : rank_slots_)
    bytes += e.value.capacity() * sizeof(std::uint32_t);
  bytes += requests_.capacity() * sizeof(OwnerRequest);
  for (const auto& req : requests_)
    bytes += req.locals.capacity() * sizeof(std::uint32_t);
  // Transient message staging at its high-water mark: the earlier
  // accounting summed only the persistent tables and undercounted every
  // flush by the size of the send tables it had just built.
  bytes += peak_msg_bytes_;
  return bytes;
}

}  // namespace picpar::core
