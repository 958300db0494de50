#include "particles/particle_array.hpp"

namespace picpar::particles {

void ParticleArray::apply_permutation(const std::vector<std::uint32_t>& perm) {
  if (perm.size() != size())
    throw std::invalid_argument("apply_permutation: size mismatch");
  auto permute = [&](auto& v) {
    auto tmp = v;
    for (std::size_t i = 0; i < perm.size(); ++i) v[i] = tmp[perm[i]];
  };
  permute(x);
  permute(y);
  permute(ux);
  permute(uy);
  permute(uz);
  permute(key);
}

double ParticleArray::kinetic_energy() const {
  // picpar-lint: allow(float-reduction-order) local-index-order sum
  double e = 0.0;
  if (species_.size() == 1) {
    const double m = species_[0].mass;
    for (std::size_t i = 0; i < size(); ++i) e += m * (gamma(i) - 1.0);
  } else {
    for (std::size_t i = 0; i < size(); ++i)
      e += mass_of(i) * (gamma(i) - 1.0);
  }
  return e;
}

}  // namespace picpar::particles
