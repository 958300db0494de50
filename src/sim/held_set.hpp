// The receives the scheduler found held back by the lower-bound rule,
// ordered the way a global stall resolves them (Machine::resolve_stall).
#pragma once

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

namespace picpar::sim::detail {

/// Held ranks ordered by their candidate's (arrival, src, seq, dup), then
/// by rank: the order in which a linear scan over ascending ranks keeps the
/// first minimal candidate, so the lowest rank wins a full tie. hold,
/// release and min_rank cost O(log p).
class HeldSet {
public:
  explicit HeldSet(int nranks)
      : key_(static_cast<std::size_t>(nranks)),
        held_(static_cast<std::size_t>(nranks), 0) {}

  /// Record the candidate rank `r` is held on, replacing an earlier one.
  void hold(int r, double arrival, int src, std::uint64_t seq, bool dup) {
    const auto i = static_cast<std::size_t>(r);
    const Key k{arrival, src, seq, dup, r};
    if (held_[i]) {
      if (key_[i] == k) return;
      order_.erase(key_[i]);
    }
    key_[i] = k;
    held_[i] = 1;
    order_.insert(k);
  }

  /// Forget rank `r`; a no-op when it holds nothing.
  void release(int r) {
    const auto i = static_cast<std::size_t>(r);
    if (!held_[i]) return;
    order_.erase(key_[i]);
    held_[i] = 0;
  }

  /// The rank holding the minimal key; -1 when nothing is held.
  int min_rank() const {
    return order_.empty() ? -1 : std::get<4>(*order_.begin());
  }

private:
  /// (arrival, src, seq, dup, rank); false < true puts an original ahead
  /// of its duplicate.
  using Key = std::tuple<double, int, std::uint64_t, bool, int>;
  std::set<Key> order_;
  std::vector<Key> key_;  ///< per rank, valid while held_
  std::vector<char> held_;
};

}  // namespace picpar::sim::detail
