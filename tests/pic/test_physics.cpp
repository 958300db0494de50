// Physical behaviour of the full PIC loop.
#include <gtest/gtest.h>

#include <cmath>

#include "pic/simulation.hpp"

namespace picpar::pic {
namespace {

TEST(Physics, ColdUniformPlasmaStaysQuiet) {
  // Zero temperature, zero drift, uniform density: no net fields should
  // develop beyond deposition noise, and kinetic energy stays tiny.
  PicParams p;
  p.grid = mesh::GridDesc(16, 16);
  p.nranks = 4;
  p.scenario = "uniform";
  p.init.total = 16 * 16 * 16;  // 16 per cell to keep noise low
  p.init.vth = 0.0;
  p.init.omega_p = 0.1;
  p.iterations = 20;
  p.policy = "static";
  const auto r = run_pic(p);
  EXPECT_LT(r.kinetic_energy, 1.0e-2);
}

TEST(Physics, ThermalEnergyOrderOfMagnitude) {
  PicParams p;
  p.grid = mesh::GridDesc(16, 16);
  p.nranks = 4;
  p.scenario = "uniform";
  p.init.total = 4096;
  p.init.vth = 0.05;
  p.iterations = 1;
  p.policy = "static";
  const auto r = run_pic(p);
  // Non-relativistic: KE ~ N * 3/2 vth^2 (u ~ v at these speeds).
  const double expected = 4096 * 1.5 * 0.05 * 0.05;
  EXPECT_GT(r.kinetic_energy, 0.5 * expected);
  EXPECT_LT(r.kinetic_energy, 2.0 * expected);
}

TEST(Physics, TotalEnergyBoundedOverRun) {
  PicParams p;
  p.grid = mesh::GridDesc(32, 32);
  p.nranks = 4;
  p.scenario = "uniform";
  p.init.total = 8192;
  p.init.vth = 0.05;
  p.init.omega_p = 0.15;
  p.iterations = 60;
  p.policy = "periodic:20";
  const auto r = run_pic(p);
  const double e0 = 8192 * 1.5 * 0.05 * 0.05;
  EXPECT_LT(r.kinetic_energy + r.field_energy, 10.0 * e0)
      << "no numerical heating catastrophe over 60 steps";
}

TEST(Physics, DriftingBlobSpreadsGhostFootprint) {
  // Under a static policy, a drifting irregular blob must steadily touch
  // more off-processor grid points (the effect Figs 17-19 plot).
  PicParams p;
  p.grid = mesh::GridDesc(32, 16);
  p.nranks = 8;
  p.scenario = "irregular_beam";
  p.init.total = 2048;
  p.init.drift_ux = 0.2;
  p.init.drift_uy = 0.1;
  p.iterations = 60;
  p.policy = "static";
  const auto r = run_pic(p);
  const auto early = r.iters[2].max_ghost_entries;
  const auto late = r.iters[55].max_ghost_entries;
  EXPECT_GT(late, early) << "ghost set must grow without redistribution";
}

TEST(Physics, RedistributionShrinksGhostFootprint) {
  PicParams p;
  p.grid = mesh::GridDesc(32, 16);
  p.nranks = 8;
  p.scenario = "irregular_beam";
  p.init.total = 2048;
  p.init.drift_ux = 0.2;
  p.iterations = 60;
  p.policy = "static";
  const auto stat = run_pic(p);
  p.policy = "periodic:10";
  const auto peri = run_pic(p);
  // Compare the tail of the run, where the static case has drifted far.
  auto tail_mean = [](const PicResult& r) {
    double s = 0.0;
    for (std::size_t i = 40; i < 60; ++i)
      s += static_cast<double>(r.iters[i].max_ghost_entries);
    return s / 20.0;
  };
  EXPECT_LT(tail_mean(peri), tail_mean(stat));
}

TEST(Physics, RelativisticParticlesStaySubluminal) {
  PicParams p;
  p.grid = mesh::GridDesc(16, 16);
  p.nranks = 2;
  p.scenario = "uniform";
  p.init.total = 512;
  p.init.vth = 2.0;  // relativistic momenta
  p.iterations = 10;
  p.policy = "static";
  // Just exercising the path: the run must complete and conserve count.
  const auto r = run_pic(p);
  const double q = particles::macro_charge(p.grid, p.init.total, 1.0,
                                           p.init.omega_p);
  EXPECT_NEAR(r.total_charge, -q * 512.0, 1e-8 * q * 512.0);
}

}  // namespace
}  // namespace picpar::pic
