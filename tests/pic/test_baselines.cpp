// The two baseline parallelizations from Section 3, checked for the
// qualitative properties Table 1 attributes to them.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "mesh/maxwell.hpp"
#include "pic/eulerian.hpp"
#include "pic/replicated.hpp"
#include "pic/simulation.hpp"
#include "sim/faults.hpp"
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

/// The Eulerian assignment of the initial population, without iterating.
PicResult eulerian_placement(const char* scenario) {
  auto p = params(scenario, 8);
  p.iterations = 0;
  return run_eulerian(p);
}

TEST(Eulerian, UniformDistributionIsRoughlyBalanced) {
  EXPECT_LT(eulerian_placement("uniform").final_imbalance, 1.4);
}

TEST(Eulerian, IrregularDistributionIsSeverelyImbalanced) {
  EXPECT_GT(eulerian_placement("irregular_beam").final_imbalance, 2.0)
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

TEST(Eulerian, PoissonSolveRuns) {
  // The electrostatic solve feeds the gather: without it the fields stay
  // at their seed and the run ends with another field energy.
  auto p = params("irregular_beam", 4);
  p.solver = FieldSolveKind::kNone;
  const auto none = run_eulerian(p);
  p.solver = FieldSolveKind::kPoisson;
  const auto poisson = run_eulerian(p);
  EXPECT_NE(poisson.field_energy, none.field_energy);
  EXPECT_GT(poisson.field_energy, 0.0);
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

TEST(Baselines, RefuseWhatTheyCannotRun) {
  // The replicated grid has no Poisson solve.
  auto p = params("uniform", 4);
  p.solver = FieldSolveKind::kPoisson;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  // Neither baseline injects faults or validates.
  p = params("uniform", 4);
  p.faults.corrupt_prob = 0.01;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  EXPECT_THROW(run_eulerian(p), std::invalid_argument);
  p = params("uniform", 4);
  p.validate.check_every = 1;
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  EXPECT_THROW(run_eulerian(p), std::invalid_argument);
  // A step past the CFL limit is unstable, as it is for run_pic.
  p = params("uniform", 4);
  p.dt = 1.01 * mesh::MaxwellSolver::max_dt(p.grid);
  EXPECT_THROW(run_replicated(p), std::invalid_argument);
  EXPECT_THROW(run_eulerian(p), std::invalid_argument);
  EXPECT_THROW(run_pic(p), std::invalid_argument);
}

/// FNV-1a of a baseline run's modeled times and energies, each double
/// printed with %a: the makespan and compute time, every rank's clock and
/// per-phase counters, every iteration's times, and both energies.
std::uint64_t pin_hash(const PicResult& r) {
  std::string text;
  char buf[64];
  const auto put = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a\n", v);
    text += buf;
  };
  const auto put_count = [&](std::uint64_t v) {
    text += std::to_string(v);
    text += '\n';
  };
  put(r.total_seconds);
  put(r.compute_seconds);
  for (const auto& rank : r.machine.ranks) {
    put(rank.clock);
    for (int ph = 0; ph < sim::kNumPhases; ++ph) {
      const auto& c = rank.stats.phase(static_cast<sim::Phase>(ph));
      put_count(c.msgs_sent);
      put_count(c.bytes_sent);
      put_count(c.msgs_recv);
      put_count(c.bytes_recv);
      put(c.comm_seconds);
      put(c.compute_seconds);
    }
  }
  for (const auto& it : r.iters) {
    put(it.exec_seconds);
    put(it.loop_seconds);
  }
  put(r.field_energy);
  put(r.kinetic_energy);
  return sim::fnv1a(reinterpret_cast<const std::byte*>(text.data()),
                    text.size());
}

TEST(Baselines, OutputsArePinned) {
  // Every modeled bit of both baselines, on each accepted scenario at
  // p = 4 and on the irregular beam at p = 8. A change that moves one of
  // these hashes changed what a baseline computes or charges.
  struct Case {
    const char* scenario;
    int nranks;
    std::uint64_t eulerian;
    std::uint64_t replicated;
  };
  const Case cases[] = {
      {"uniform", 4, 0x485b61a6ef6ce22full, 0xe9266057dd350d47ull},
      {"irregular_beam", 4, 0x1402fcd5ef2489dbull, 0x7ef3be874807ce1full},
      {"two_stream", 4, 0xc7d12e19f08a5c26ull, 0xb8b5d5cdd7bfccb5ull},
      {"weibel", 4, 0x7ded2802ff43789dull, 0xcbeeac05d12f883cull},
      {"moving_hotspot", 4, 0x8c49c97b3e3a8179ull, 0x99f51dbc6360e960ull},
      {"irregular_beam", 8, 0x5e34007e35e2033aull, 0x285456a3fddfc028ull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.scenario) + " p=" + std::to_string(c.nranks));
    const auto p = params(c.scenario, c.nranks);
    EXPECT_EQ(pin_hash(run_eulerian(p)), c.eulerian);
    EXPECT_EQ(pin_hash(run_replicated(p)), c.replicated);
  }
}

}  // namespace
}  // namespace picpar::pic
