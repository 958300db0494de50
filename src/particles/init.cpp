#include "particles/init.hpp"

#include <cmath>
#include <stdexcept>

namespace picpar::particles {

double macro_charge(const mesh::GridDesc& grid, std::uint64_t total,
                    double mass, double omega_p) {
  if (total == 0) throw std::invalid_argument("macro_charge: total == 0");
  return omega_p * std::sqrt(mass * grid.lx * grid.ly /
                             static_cast<double>(total));
}

ParticleArray generate(Distribution dist, const mesh::GridDesc& grid,
                       const InitParams& params, double charge, double mass) {
  if (params.omega_p > 0.0)
    charge = -macro_charge(grid, params.total, mass, params.omega_p);
  ParticleArray p(charge, mass);
  p.reserve(params.total);
  Rng rng(params.seed);

  const double cx = 0.5 * grid.lx;
  const double cy = 0.5 * grid.ly;
  const double sigma_x = params.sigma_fraction * grid.lx;
  const double sigma_y = params.sigma_fraction * grid.ly;

  for (std::uint64_t i = 0; i < params.total; ++i) {
    ParticleRec r;
    switch (dist) {
      case Distribution::kUniform:
        r.x = rng.uniform(0.0, grid.lx);
        r.y = rng.uniform(0.0, grid.ly);
        break;
      case Distribution::kGaussian:
        // Center-concentrated blob (the paper's "irregular" case, Fig 15);
        // wrap tails periodically so density stays integrable.
        r.x = grid.wrap_x(rng.normal(cx, sigma_x));
        r.y = grid.wrap_y(rng.normal(cy, sigma_y));
        break;
      case Distribution::kTwoStream:
        r.x = rng.uniform(0.0, grid.lx);
        r.y = rng.uniform(0.0, grid.ly);
        break;
    }
    r.ux = params.drift_ux + params.vth * rng.normal();
    r.uy = params.drift_uy + params.vth * rng.normal();
    r.uz = params.vth * rng.normal();
    if (dist == Distribution::kTwoStream) {
      // Counter-streaming beams split by parity.
      const double beam = (i % 2 == 0) ? 1.0 : -1.0;
      r.ux += beam * 0.2;
    }
    p.push_back(r);
  }
  return p;
}

}  // namespace picpar::particles
