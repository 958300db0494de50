// End-to-end invariants of the independent-partitioning Lagrangian PIC.
#include "pic/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace picpar::pic {
namespace {

PicParams small_params() {
  PicParams p;
  p.grid = mesh::GridDesc(32, 16);
  p.nranks = 8;
  p.scenario = "irregular_beam";
  p.init.total = 2048;
  p.init.drift_ux = 0.12;
  p.init.drift_uy = 0.07;
  p.iterations = 20;
  p.policy = "periodic:5";
  p.machine = sim::CostModel::cm5();
  return p;
}

TEST(RunPic, CompletesAndReportsEveryIteration) {
  const auto r = run_pic(small_params());
  EXPECT_EQ(r.iters.size(), 20u);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.compute_seconds, 0.0);
  EXPECT_GE(r.overhead_seconds(), 0.0);
  for (const auto& it : r.iters) EXPECT_GT(it.exec_seconds, 0.0);
}

TEST(RunPic, ChargeIsConservedExactly) {
  auto p = small_params();
  const auto r = run_pic(p);
  // Total deposited charge == N * q (CIC weights sum to 1 per particle).
  const double q = particles::macro_charge(p.grid, p.init.total, 1.0,
                                           p.init.omega_p);
  EXPECT_NEAR(r.total_charge, -q * static_cast<double>(p.init.total),
              1e-9 * q * static_cast<double>(p.init.total));
}

TEST(RunPic, PeriodicPolicyRedistributesOnSchedule) {
  auto p = small_params();
  p.policy = "periodic:5";
  const auto r = run_pic(p);
  EXPECT_EQ(r.redistributions, 4);
  EXPECT_TRUE(r.iters[4].redistributed);
  EXPECT_TRUE(r.iters[9].redistributed);
  EXPECT_FALSE(r.iters[3].redistributed);
}

TEST(RunPic, StaticPolicyNeverRedistributes) {
  auto p = small_params();
  p.policy = "static";
  const auto r = run_pic(p);
  EXPECT_EQ(r.redistributions, 0);
}

TEST(RunPic, DeterministicAcrossRuns) {
  const auto a = run_pic(small_params());
  const auto b = run_pic(small_params());
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.kinetic_energy, b.kinetic_energy);
  EXPECT_EQ(a.field_energy, b.field_energy);
  for (std::size_t i = 0; i < a.iters.size(); ++i)
    EXPECT_EQ(a.iters[i].exec_seconds, b.iters[i].exec_seconds);
}

TEST(RunPic, PhysicsIndependentOfPolicy) {
  // Redistribution changes who computes, not what is computed: energies
  // must agree across policies up to floating-point summation order.
  auto p = small_params();
  p.policy = "static";
  const auto a = run_pic(p);
  p.policy = "periodic:3";
  const auto b = run_pic(p);
  p.policy = "sar";
  const auto c = run_pic(p);
  EXPECT_NEAR(b.kinetic_energy, a.kinetic_energy, 1e-6 * a.kinetic_energy);
  EXPECT_NEAR(c.kinetic_energy, a.kinetic_energy, 1e-6 * a.kinetic_energy);
  EXPECT_NEAR(b.field_energy, a.field_energy,
              1e-6 * std::max(1.0, a.field_energy));
}

TEST(RunPic, PhysicsIndependentOfCurveAndDecomp) {
  auto p = small_params();
  p.curve = sfc::CurveKind::kHilbert;
  p.grid_decomp = GridDecomp::kCurve;
  const auto a = run_pic(p);
  p.curve = sfc::CurveKind::kSnake;
  const auto b = run_pic(p);
  p.grid_decomp = GridDecomp::kBlock;
  const auto c = run_pic(p);
  EXPECT_NEAR(b.kinetic_energy, a.kinetic_energy, 1e-6 * a.kinetic_energy);
  EXPECT_NEAR(c.kinetic_energy, a.kinetic_energy, 1e-6 * a.kinetic_energy);
}

TEST(RunPic, PhysicsIndependentOfMachineModel) {
  // Virtual time must not feed back into the physics.
  auto p = small_params();
  const auto a = run_pic(p);
  p.machine = sim::CostModel::zero();
  const auto b = run_pic(p);
  EXPECT_EQ(a.kinetic_energy, b.kinetic_energy);
  EXPECT_EQ(a.field_energy, b.field_energy);
}

TEST(RunPic, DedupPoliciesAgree) {
  auto p = small_params();
  p.dedup = core::DedupPolicy::kHash;
  const auto a = run_pic(p);
  p.dedup = core::DedupPolicy::kDirect;
  const auto b = run_pic(p);
  EXPECT_EQ(a.kinetic_energy, b.kinetic_energy);
  EXPECT_EQ(a.total_charge, b.total_charge);
}

TEST(RunPic, SarAdaptsWithoutTuning) {
  auto p = small_params();
  p.iterations = 40;
  p.policy = "sar";
  const auto r = run_pic(p);
  EXPECT_GT(r.redistributions, 0) << "drifting blob must trigger SAR";
  EXPECT_LT(r.redistributions, 40);
}

TEST(RunPic, ScatterTrafficIsRecorded) {
  const auto r = run_pic(small_params());
  bool any = false;
  for (const auto& it : r.iters)
    if (it.scatter_max_sent_bytes > 0) any = true;
  EXPECT_TRUE(any);
  for (const auto& it : r.iters) {
    EXPECT_GE(it.scatter_max_sent_msgs, 1u);
    EXPECT_GE(it.max_ghost_entries, 1u);
  }
}

TEST(RunPic, SingleRankRunsWithoutCommunication) {
  auto p = small_params();
  p.nranks = 1;
  const auto r = run_pic(p);
  EXPECT_EQ(r.iters.size(), 20u);
  for (const auto& it : r.iters) {
    EXPECT_EQ(it.scatter_max_sent_bytes, 0u);
    EXPECT_EQ(it.max_ghost_entries, 0u);
  }
}

TEST(RunPic, PoissonSolverModeRuns) {
  auto p = small_params();
  p.solver = FieldSolveKind::kPoisson;
  p.iterations = 5;
  const auto r = run_pic(p);
  EXPECT_EQ(r.iters.size(), 5u);
  EXPECT_GT(r.kinetic_energy, 0.0);
}

TEST(RunPic, NoSolverModeRuns) {
  auto p = small_params();
  p.solver = FieldSolveKind::kNone;
  p.iterations = 5;
  const auto r = run_pic(p);
  EXPECT_DOUBLE_EQ(r.field_energy, 0.0);
}

TEST(RunPic, RejectsInvalidConfigs) {
  auto p = small_params();
  p.init.total = 0;
  EXPECT_THROW(run_pic(p), std::invalid_argument);
  p = small_params();
  p.iterations = -1;
  EXPECT_THROW(run_pic(p), std::invalid_argument);
}

}  // namespace
}  // namespace picpar::pic
