// Vector clocks over simulated ranks — the partial order underneath the
// happens-before analyzer.
//
// Component r counts the events rank r has executed. An event is a send,
// a completed receive, or anything else the tracker chooses to tick. A
// receive merges the matched send's clock into the receiver's, which is
// exactly Mattern/Fidge vector time: event a happens-before event b iff
// clock(a) < clock(b) component-wise (with at least one strict), and two
// events are concurrent iff their clocks are incomparable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace picpar::analysis {

class VectorClock {
public:
  VectorClock() = default;
  explicit VectorClock(int nranks)
      : c_(static_cast<std::size_t>(nranks), 0) {}

  int size() const { return static_cast<int>(c_.size()); }
  bool empty() const { return c_.empty(); }
  std::uint64_t operator[](int rank) const {
    return c_[static_cast<std::size_t>(rank)];
  }

  /// Advance this rank's own component (call on every local event).
  void tick(int rank) { ++c_[static_cast<std::size_t>(rank)]; }

  /// Component-wise max with another clock (call on message receipt,
  /// before the receive event's own tick).
  void merge(const VectorClock& other);

  /// True iff this clock's event happens-before other's (strictly).
  bool happens_before(const VectorClock& other) const;

  /// True iff neither happens-before the other: the events are concurrent
  /// (could be observed in either order).
  bool concurrent(const VectorClock& other) const {
    return !happens_before(other) && !other.happens_before(*this) &&
           c_ != other.c_;
  }

  /// FNV-1a over the components — the DAG-fingerprint building block.
  std::uint64_t hash() const;

  /// "[3 0 7 1]" — for finding provenance strings.
  std::string str() const;

private:
  std::vector<std::uint64_t> c_;
};

/// One FNV-1a 64 step per byte of `value`, low byte first — the fold that
/// VectorClock::hash and the analyzer's DAG fingerprint are built from.
void fnv_mix(std::uint64_t& h, std::uint64_t value);

}  // namespace picpar::analysis
