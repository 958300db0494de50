// Fault-tolerant PIC runs: validation-only overhead, memory-fault detection
// with checkpoint rollback, transport recovery under wire corruption, and
// determinism of faulty runs.
#include <gtest/gtest.h>

#include <cmath>

#include "pic/simulation.hpp"

namespace picpar::pic {
namespace {

PicParams base_params() {
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

void expect_same_result(const PicResult& a, const PicResult& b) {
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.kinetic_energy, b.kinetic_energy);
  EXPECT_EQ(a.field_energy, b.field_energy);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.violation_iterations, b.violation_iterations);
  EXPECT_EQ(a.final_particles, b.final_particles);
  ASSERT_EQ(a.iters.size(), b.iters.size());
  for (std::size_t i = 0; i < a.iters.size(); ++i) {
    EXPECT_EQ(a.iters[i].exec_seconds, b.iters[i].exec_seconds);
    EXPECT_EQ(a.iters[i].violation_mask, b.iters[i].violation_mask);
    EXPECT_EQ(a.iters[i].recovered, b.iters[i].recovered);
  }
}

TEST(Recovery, DisabledSubsystemMatchesPlainRun) {
  // Explicitly default-constructed fault/validation params must change
  // nothing: the subsystem is a zero-overhead abstraction when off.
  auto p = base_params();
  const auto plain = run_pic(p);
  p.faults = sim::FaultConfig{};
  p.validate = ValidationParams{};
  const auto off = run_pic(p);
  expect_same_result(plain, off);
  EXPECT_EQ(off.recoveries, 0);
  EXPECT_EQ(off.violation_iterations, 0);
}

TEST(Recovery, CleanRunPassesValidation) {
  auto p = base_params();
  p.validate.check_every = 1;
  p.validate.checkpoint_every = 5;
  p.validate.invariants.balance_tolerance = 2.0;
  p.validate.invariants.balance_slack = 64.0;
  const auto r = run_pic(p);
  EXPECT_EQ(r.violation_iterations, 0);
  EXPECT_EQ(r.recoveries, 0);
  EXPECT_EQ(r.final_particles, r.initial_particles);
}

TEST(Recovery, MemoryFaultTriggersRollbackAndConservesParticles) {
  auto p = base_params();
  p.iterations = 30;
  p.faults.seed = 99;
  p.faults.memory_fault_prob = 0.05;  // a handful of bit flips over the run
  p.validate.check_every = 1;
  p.validate.checkpoint_every = 1;
  const auto r = run_pic(p);

  // The injected flips must have been seen (position, momentum or key) and
  // at least one must have tripped the checker into a rollback.
  EXPECT_GT(r.machine.faults_total().memory_faults, 0u);
  EXPECT_GT(r.violation_iterations, 0);
  EXPECT_GE(r.recoveries, 1);
  // Rollback restores a full population: nothing lost, nothing duplicated.
  EXPECT_EQ(r.final_particles, r.initial_particles);
  // No corrupt momentum survives the checks: a flip that leaves a finite
  // momentum with an infinite Lorentz factor is caught too.
  EXPECT_TRUE(std::isfinite(r.kinetic_energy)) << r.kinetic_energy;
  // Recovered iterations are flagged and count as redistributions.
  bool saw_recovered = false;
  for (const auto& it : r.iters) {
    if (it.recovered) {
      saw_recovered = true;
      EXPECT_TRUE(it.redistributed);
      EXPECT_NE(it.violation_mask, 0u);
    }
  }
  EXPECT_TRUE(saw_recovered);
}

TEST(Recovery, WireCorruptionIsRecoveredTransparently) {
  auto p = base_params();
  const auto clean = run_pic(p);
  p.faults.corrupt_prob = 0.05;
  p.faults.max_retries = 20;
  const auto faulty = run_pic(p);

  const auto t = faulty.machine.transport_total();
  const auto f = faulty.machine.faults_total();
  EXPECT_GT(f.corrupted_deliveries, 0u);
  EXPECT_EQ(t.corruptions_detected, f.corrupted_deliveries)
      << "every injected wire corruption must be detected";
  EXPECT_EQ(t.retries, t.corruptions_detected);
  // Recovery is transparent to the application: identical physics, only
  // the virtual clock pays.
  EXPECT_EQ(faulty.kinetic_energy, clean.kinetic_energy);
  EXPECT_EQ(faulty.field_energy, clean.field_energy);
  EXPECT_GT(faulty.total_seconds, clean.total_seconds);
}

TEST(Recovery, FaultyRunsAreDeterministic) {
  auto p = base_params();
  p.faults.seed = 7;
  p.faults.corrupt_prob = 0.03;
  p.faults.duplicate_prob = 0.03;
  p.faults.latency_jitter_prob = 0.1;
  p.faults.latency_jitter_max_seconds = 1e-4;
  p.faults.memory_fault_prob = 0.03;
  p.faults.max_retries = 20;
  p.validate.check_every = 1;
  p.validate.checkpoint_every = 1;
  const auto a = run_pic(p);
  const auto b = run_pic(p);
  expect_same_result(a, b);
}

TEST(Recovery, DifferentSeedsDiverge) {
  auto p = base_params();
  p.faults.memory_fault_prob = 0.2;
  p.validate.check_every = 1;
  p.validate.checkpoint_every = 1;
  p.faults.seed = 1;
  const auto a = run_pic(p);
  p.faults.seed = 2;
  const auto b = run_pic(p);
  // Different fault streams should flip different bits; requiring identical
  // violation patterns would be astronomically unlikely.
  bool differs = a.violation_iterations != b.violation_iterations ||
                 a.total_seconds != b.total_seconds;
  for (std::size_t i = 0; !differs && i < a.iters.size(); ++i)
    differs = a.iters[i].violation_mask != b.iters[i].violation_mask;
  EXPECT_TRUE(differs);
}

TEST(Recovery, StragglerInflatesOverheadNotPhysics) {
  auto p = base_params();
  p.policy = "static";
  const auto clean = run_pic(p);
  p.faults.straggler_ranks = {3};
  p.faults.straggler_factor = 4.0;
  const auto slow = run_pic(p);
  EXPECT_GT(slow.total_seconds, clean.total_seconds);
  EXPECT_EQ(slow.kinetic_energy, clean.kinetic_energy);
  EXPECT_EQ(slow.final_particles, clean.final_particles);
}

TEST(Recovery, RecoveryBudgetIsRespected) {
  auto p = base_params();
  p.iterations = 30;
  p.faults.memory_fault_prob = 0.6;  // violations nearly every iteration
  p.validate.check_every = 1;
  p.validate.checkpoint_every = 1;
  p.validate.max_recoveries = 2;
  const auto r = run_pic(p);
  EXPECT_LE(r.recoveries, 2);
  EXPECT_GT(r.violation_iterations, r.recoveries);
}

}  // namespace
}  // namespace picpar::pic
