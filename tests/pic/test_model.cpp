// The Section 4 analytic model and its relation to the simulator.
#include <gtest/gtest.h>

#include "pic/model.hpp"
#include "pic/simulation.hpp"

namespace picpar::pic {
namespace {

ModelInputs inputs() {
  ModelInputs in;
  in.particles = 32768;
  in.grid_points = 128 * 64;
  in.nranks = 32;
  in.machine = sim::CostModel::cm5();
  return in;
}

TEST(Section4Model, GhostBoundIsMinOfTwoTerms) {
  auto in = inputs();
  // m/p = 256, 4n/p = 4096 -> u = 256.
  EXPECT_DOUBLE_EQ(ghost_point_bound(in), 256.0);
  in.particles = 256;  // 4n/p = 32 < m/p
  EXPECT_DOUBLE_EQ(ghost_point_bound(in), 32.0);
}

TEST(Section4Model, BoundsArePositiveAndOrdered) {
  const auto in = inputs();
  const auto b = phase_bounds(in);
  EXPECT_GT(b.scatter, 0.0);
  EXPECT_GT(b.field_solve, 0.0);
  EXPECT_GT(b.gather, 0.0);
  EXPECT_GT(b.push, 0.0);
  EXPECT_DOUBLE_EQ(b.iteration(),
                   b.scatter + b.field_solve + b.gather + b.push);
}

TEST(Section4Model, AlignedEstimateBelowWorstCase) {
  const auto in = inputs();
  const auto worst = phase_bounds(in);
  const auto aligned = aligned_phase_estimate(in);
  EXPECT_LT(aligned.scatter, worst.scatter);
  EXPECT_LT(aligned.gather, worst.gather);
  EXPECT_DOUBLE_EQ(aligned.push, worst.push) << "push has no communication";
  EXPECT_LE(aligned.iteration(), worst.iteration());
}

TEST(Section4Model, ScatterBoundMatchesFormula) {
  auto in = inputs();
  in.costs = PhaseCosts{};
  const auto b = phase_bounds(in);
  const double p = 32, n_p = 1024, u = 256;
  const double mu = in.machine.mu + in.machine.recv_copy_mu;
  const double expected = 4.0 * n_p * in.costs.scatter_per_vertex *
                              in.machine.delta +
                          (p - 1.0) * in.machine.tau + u * 8.0 * mu;
  EXPECT_DOUBLE_EQ(b.scatter, expected);
}

TEST(Section4Model, RejectsZeroRanks) {
  auto in = inputs();
  in.nranks = 0;
  EXPECT_THROW(phase_bounds(in), std::invalid_argument);
  EXPECT_THROW(aligned_phase_estimate(in), std::invalid_argument);
}

TEST(Section4Model, InputsFromParams) {
  PicParams p;
  p.grid = mesh::GridDesc(64, 32);
  p.nranks = 8;
  p.init.total = 4096;
  const auto in = model_inputs(p);
  EXPECT_EQ(in.particles, 4096u);
  EXPECT_EQ(in.grid_points, 2048u);
  EXPECT_EQ(in.nranks, 8);
}

TEST(Section4Model, SimulationRespectsWorstCaseBound) {
  // Measured per-iteration time must not exceed the analytic upper bound
  // (small slack for the diagnostics allreduce the bound doesn't know
  // about).
  PicParams p;
  p.grid = mesh::GridDesc(64, 32);
  p.nranks = 8;
  p.scenario = "irregular_beam";
  p.init.total = 8192;
  p.init.drift_ux = 0.15;
  p.iterations = 60;
  p.policy = "static";  // worst case for communication growth
  p.machine = sim::CostModel::cm5();
  const auto bound = phase_bounds(model_inputs(p)).iteration();
  const auto r = run_pic(p);
  for (const auto& it : r.iters)
    EXPECT_LE(it.exec_seconds, bound * 1.10)
        << "iteration " << it.iter << " exceeded the Section 4 bound";
}

TEST(Section4Model, AlignedRunsNearAlignedEstimate) {
  // With a uniform distribution and frequent redistribution, measured
  // iterations should be within a factor ~2 of the aligned estimate.
  PicParams p;
  p.grid = mesh::GridDesc(64, 32);
  p.nranks = 8;
  p.scenario = "uniform";
  p.init.total = 8192;
  p.iterations = 20;
  p.policy = "periodic:5";
  p.machine = sim::CostModel::cm5();
  const auto aligned = aligned_phase_estimate(model_inputs(p)).iteration();
  const auto r = run_pic(p);
  double median;
  {
    std::vector<double> t;
    for (const auto& it : r.iters)
      if (!it.redistributed) t.push_back(it.exec_seconds);
    std::sort(t.begin(), t.end());
    median = t[t.size() / 2];
  }
  EXPECT_GT(median, 0.5 * aligned);
  EXPECT_LT(median, 2.5 * aligned);
}

}  // namespace
}  // namespace picpar::pic
