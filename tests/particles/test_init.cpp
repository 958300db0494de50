#include "particles/init.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace picpar::particles {
namespace {

mesh::GridDesc grid() { return mesh::GridDesc(64, 64); }

InitParams base(std::uint64_t n) {
  InitParams p;
  p.total = n;
  return p;
}

TEST(Init, GeneratesRequestedCount) {
  const auto p = generate(Distribution::kUniform, grid(), base(1000));
  EXPECT_EQ(p.size(), 1000u);
}

TEST(Init, DeterministicForSeed) {
  auto a = generate(Distribution::kGaussian, grid(), base(500));
  auto b = generate(Distribution::kGaussian, grid(), base(500));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]);
    EXPECT_EQ(a.ux[i], b.ux[i]);
  }
}

TEST(Init, DifferentSeedsDiffer) {
  auto pa = base(100);
  auto pb = base(100);
  pb.seed = 999;
  auto a = generate(Distribution::kUniform, grid(), pa);
  auto b = generate(Distribution::kUniform, grid(), pb);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.x[i] == b.x[i]) ++same;
  EXPECT_LT(same, 5);
}

TEST(Init, AllPositionsInsideDomain) {
  for (auto d : {Distribution::kUniform, Distribution::kGaussian,
                 Distribution::kTwoStream}) {
    const auto p = generate(d, grid(), base(2000));
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_GE(p.x[i], 0.0);
      EXPECT_LT(p.x[i], 64.0);
      EXPECT_GE(p.y[i], 0.0);
      EXPECT_LT(p.y[i], 64.0);
    }
  }
}

TEST(Init, GaussianConcentratedInCenter) {
  auto params = base(20000);
  params.sigma_fraction = 0.08;
  const auto p = generate(Distribution::kGaussian, grid(), params);
  // >80% of particles within 3 sigma of the center in x.
  const double sigma = 0.08 * 64.0;
  std::size_t inside = 0;
  for (std::size_t i = 0; i < p.size(); ++i)
    if (std::abs(p.x[i] - 32.0) < 3.0 * sigma) ++inside;
  EXPECT_GT(static_cast<double>(inside) / static_cast<double>(p.size()), 0.8);
}

TEST(Init, UniformSpreadsOverDomain) {
  const auto p = generate(Distribution::kUniform, grid(), base(20000));
  // Quadrant counts within 10% of each other.
  std::size_t q[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < p.size(); ++i) {
    const int qi = (p.x[i] < 32.0 ? 0 : 1) + (p.y[i] < 32.0 ? 0 : 2);
    ++q[qi];
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(static_cast<double>(q[i]), 5000.0, 500.0);
}

TEST(Init, DriftShiftsMeanMomentum) {
  auto params = base(10000);
  params.drift_ux = 0.5;
  params.drift_uy = -0.25;
  const auto p = generate(Distribution::kUniform, grid(), params);
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    mx += p.ux[i];
    my += p.uy[i];
  }
  EXPECT_NEAR(mx / static_cast<double>(p.size()), 0.5, 0.01);
  EXPECT_NEAR(my / static_cast<double>(p.size()), -0.25, 0.01);
}

TEST(Init, TwoStreamHasCounterPropagatingBeams) {
  const auto p = generate(Distribution::kTwoStream, grid(), base(1000));
  double even = 0.0, odd = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i)
    (i % 2 == 0 ? even : odd) += p.ux[i];
  EXPECT_GT(even / 500.0, 0.1);
  EXPECT_LT(odd / 500.0, -0.1);
}

TEST(Init, MacroChargeRealizesPlasmaFrequency) {
  const auto g = grid();
  const std::uint64_t n = 4096;
  const double q = macro_charge(g, n, 1.0, 0.3);
  const double n0 = static_cast<double>(n) / (g.lx * g.ly);
  // omega_p^2 = n0 q^2 / m  (charge density rho = n0*q, each carrier q).
  EXPECT_NEAR(std::sqrt(n0 * q * q / 1.0), 0.3, 1e-12);
}

TEST(Init, OmegaPSetsSpeciesCharge) {
  auto params = base(1000);
  params.omega_p = 0.3;
  const auto p = generate(Distribution::kUniform, grid(), params);
  EXPECT_NEAR(p.charge(), -macro_charge(grid(), 1000, 1.0, 0.3), 1e-15);
}

TEST(Init, OmegaPZeroKeepsExplicitCharge) {
  auto params = base(10);
  params.omega_p = 0.0;
  const auto p = generate(Distribution::kUniform, grid(), params, -7.5, 2.0);
  EXPECT_DOUBLE_EQ(p.charge(), -7.5);
  EXPECT_DOUBLE_EQ(p.mass(), 2.0);
}

TEST(Init, MacroChargeRejectsZeroTotal) {
  EXPECT_THROW(macro_charge(grid(), 0, 1.0, 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace picpar::particles
