#include "analysis/vector_clock.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

namespace picpar::analysis {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
/// kFnvPowers[n] = kFnvPrime^n.
constexpr std::array<std::uint64_t, 9> kFnvPowers = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * kFnvPrime;
  return p;
}();

}  // namespace

void fnv_mix(std::uint64_t& h, std::uint64_t value) {
  // A zero byte only multiplies by the prime, so the word's high zero bytes
  // fold into one multiplication by a power of it. Clock components and
  // most mixed fields are small, so this skips most of the serial chain.
  std::size_t b = 0;
  for (; value != 0; ++b, value >>= 8) {
    h ^= value & 0xffULL;
    h *= kFnvPrime;
  }
  h *= kFnvPowers[8 - b];
}

void VectorClock::merge(const VectorClock& other) {
  if (other.c_.size() != c_.size())
    throw std::invalid_argument("VectorClock::merge: size mismatch");
  for (std::size_t i = 0; i < c_.size(); ++i)
    c_[i] = std::max(c_[i], other.c_[i]);
}

bool VectorClock::happens_before(const VectorClock& other) const {
  if (other.c_.size() != c_.size())
    throw std::invalid_argument("VectorClock::happens_before: size mismatch");
  bool strict = false;
  for (std::size_t i = 0; i < c_.size(); ++i) {
    if (c_[i] > other.c_[i]) return false;
    if (c_[i] < other.c_[i]) strict = true;
  }
  return strict;
}

std::uint64_t VectorClock::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto v : c_) fnv_mix(h, v);
  return h;
}

std::string VectorClock::str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < c_.size(); ++i) {
    if (i) os << ' ';
    os << c_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace picpar::analysis
