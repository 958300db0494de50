// The two baseline parallelizations from Section 3, checked for the
// qualitative properties Table 1 attributes to them.
#include <gtest/gtest.h>

#include "pic/eulerian.hpp"
#include "pic/replicated.hpp"
#include "pic/simulation.hpp"
#include "util/stats.hpp"

namespace picpar::pic {
namespace {

PicParams params(const std::string& scenario, int nranks) {
  PicParams p;
  p.grid = mesh::GridDesc(32, 16);
  p.nranks = nranks;
  p.scenario = scenario;
  p.init.total = 2048;
  p.init.drift_ux = 0.1;
  p.iterations = 10;
  p.machine = sim::CostModel::cm5();
  return p;
}

/// Every scenario a baseline accepts: the ones whose particles neither
/// enter nor leave the domain. Each exercises a different hook (species
/// table, field seed, driver), so a baseline that skipped one would drift
/// far past the reordering noise the tolerances below allow.
const char* const kBaselineScenarios[] = {
    "uniform", "irregular_beam", "two_stream", "weibel", "moving_hotspot"};

TEST(Replicated, CompletesWithSamePhysicsAsMain) {
  for (const char* scenario : kBaselineScenarios) {
    SCOPED_TRACE(scenario);
    auto p = params(scenario, 4);
    const auto rep = run_replicated(p);
    p.policy = "static";
    const auto main = run_pic(p);
    ASSERT_EQ(rep.iters.size(), 10u);
    EXPECT_NEAR(rep.kinetic_energy, main.kinetic_energy,
                1e-6 * main.kinetic_energy);
    EXPECT_NEAR(rep.field_energy, main.field_energy,
                1e-5 * std::max(1.0, main.field_energy));
  }
}

TEST(Replicated, GlobalOperationsDominateAtScale) {
  // Fixed problem, growing machine: the replicated baseline's overhead
  // (global sums over the full mesh) must grow with p while the
  // distributed version's per-rank mesh share shrinks.
  const auto small = run_replicated(params("uniform", 4));
  const auto large = run_replicated(params("uniform", 16));
  EXPECT_GT(large.overhead_seconds(), small.overhead_seconds());
}

TEST(Replicated, OverheadWorseThanIndependentPartitioning) {
  auto p = params("uniform", 16);
  const auto rep = run_replicated(p);
  p.policy = "periodic:5";
  const auto main = run_pic(p);
  EXPECT_GT(rep.overhead_seconds(), main.overhead_seconds())
      << "replicated-grid global ops should cost more than ghost exchange";
}

TEST(Replicated, ComputeStaysBalanced) {
  // Direct Lagrangian: equal particle counts -> balanced compute.
  const auto r = run_replicated(params("irregular_beam", 8));
  std::vector<double> compute;
  for (const auto& rank : r.machine.ranks)
    compute.push_back(rank.stats.total().compute_seconds);
  EXPECT_LT(imbalance(compute).factor(), 1.2);
}

TEST(Eulerian, UniformDistributionIsRoughlyBalanced) {
  const auto counts =
      eulerian_particle_counts(params("uniform", 8));
  EXPECT_LT(imbalance_counts(counts).factor(), 1.4);
}

TEST(Eulerian, IrregularDistributionIsSeverelyImbalanced) {
  const auto counts =
      eulerian_particle_counts(params("irregular_beam", 8));
  EXPECT_GT(imbalance_counts(counts).factor(), 2.0)
      << "center-concentrated blob must overload the central ranks";
}

TEST(Eulerian, ImbalanceShowsUpInComputeTime) {
  const auto r = run_eulerian(params("irregular_beam", 8));
  std::vector<double> compute;
  for (const auto& rank : r.machine.ranks)
    compute.push_back(rank.stats.total().compute_seconds);
  EXPECT_GT(imbalance(compute).factor(), 1.8);
}

TEST(Eulerian, SlowerThanLagrangianOnIrregularInput) {
  auto p = params("irregular_beam", 8);
  p.iterations = 15;
  const auto eul = run_eulerian(p);
  p.policy = "periodic:5";
  const auto main = run_pic(p);
  EXPECT_GT(eul.total_seconds, main.total_seconds)
      << "load imbalance must dominate the Eulerian baseline";
}

TEST(Eulerian, ParticleCountConservedUnderMigration) {
  auto p = params("uniform", 8);
  p.init.drift_ux = 0.3;  // strong drift => lots of migration
  p.iterations = 20;
  const auto r = run_eulerian(p);
  // kinetic_energy sums over final particles; if particles were lost the
  // energy would drop far below the main simulation's.
  p.policy = "static";
  const auto main = run_pic(p);
  EXPECT_NEAR(r.kinetic_energy, main.kinetic_energy,
              1e-5 * main.kinetic_energy);
}

TEST(Eulerian, PhysicsMatchesMainSimulation) {
  for (const char* scenario : kBaselineScenarios) {
    SCOPED_TRACE(scenario);
    auto p = params(scenario, 4);
    const auto eul = run_eulerian(p);
    p.policy = "periodic:3";
    const auto main = run_pic(p);
    EXPECT_NEAR(eul.kinetic_energy, main.kinetic_energy,
                1e-6 * main.kinetic_energy);
  }
}

TEST(Baselines, RejectEmptyPopulations) {
  auto p = params("uniform", 4);
  p.init.total = 0;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  EXPECT_THROW(run_eulerian(p), std::invalid_argument);
  p = params("uniform", 4);
  p.iterations = -1;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  EXPECT_THROW(run_eulerian(p), std::invalid_argument);
}

TEST(Baselines, RejectScenariosThatInjectOrAbsorb) {
  // beam_into_plasma injects at x = 0 and absorbs at the x walls; neither
  // baseline can place or remove particles.
  const auto p = params("beam_into_plasma", 4);
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  EXPECT_THROW(run_eulerian(p), std::invalid_argument);
}

}  // namespace
}  // namespace picpar::pic
