// Energy-history sampling hook.
#include <gtest/gtest.h>

#include <cmath>

#include "pic/simulation.hpp"

namespace picpar::pic {
namespace {

PicParams params() {
  PicParams p;
  p.grid = mesh::GridDesc(16, 16);
  p.nranks = 4;
  p.scenario = "uniform";
  p.init.total = 1024;
  p.iterations = 20;
  p.policy = "static";
  p.machine = sim::CostModel::zero();
  return p;
}

TEST(EnergySampling, OffByDefault) {
  const auto r = run_pic(params());
  EXPECT_TRUE(r.energy_history.empty());
}

TEST(EnergySampling, SamplesAtRequestedInterval) {
  auto p = params();
  p.sample_energy_every = 5;
  const auto r = run_pic(p);
  ASSERT_EQ(r.energy_history.size(), 4u);
  EXPECT_EQ(r.energy_history[0].iter, 4);
  EXPECT_EQ(r.energy_history[3].iter, 19);
}

TEST(EnergySampling, FinalSampleMatchesResultTotals) {
  auto p = params();
  p.sample_energy_every = 20;  // one sample, at the last iteration
  const auto r = run_pic(p);
  ASSERT_EQ(r.energy_history.size(), 1u);
  EXPECT_NEAR(r.energy_history[0].kinetic, r.kinetic_energy,
              1e-9 * std::max(1.0, r.kinetic_energy));
  EXPECT_NEAR(r.energy_history[0].field, r.field_energy,
              1e-9 * std::max(1.0, r.field_energy));
}

TEST(EnergySampling, ValuesArePositiveAndFinite) {
  auto p = params();
  p.init.vth = 0.05;
  p.sample_energy_every = 4;
  const auto r = run_pic(p);
  for (const auto& s : r.energy_history) {
    EXPECT_GT(s.kinetic, 0.0);
    EXPECT_GE(s.field, 0.0);
    EXPECT_TRUE(std::isfinite(s.field));
    EXPECT_TRUE(std::isfinite(s.kinetic));
  }
}

TEST(EnergySampling, DoesNotChangePhysics) {
  auto a = params();
  const auto ra = run_pic(a);
  auto b = params();
  b.sample_energy_every = 3;
  const auto rb = run_pic(b);
  EXPECT_EQ(ra.kinetic_energy, rb.kinetic_energy);
  EXPECT_EQ(ra.field_energy, rb.field_energy);
}

}  // namespace
}  // namespace picpar::pic
