// Scenario library (src/scenario): registry contents, injector determinism,
// per-scenario golden metrics, conservation under open boundaries,
// sequential/parallel bit-identity for every scenario, and the pluggable
// balancer policies.
//
// Golden values are pinned from the reference configuration below; the
// engines are bit-deterministic (DESIGN.md §7), so an exact mismatch means
// scenario semantics changed — re-pin only if the change is intentional.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/balancer.hpp"
#include "pic/simulation.hpp"
#include "scenario/scenario.hpp"
#include "sfc/index_cache.hpp"
#include "sfc/simple_curves.hpp"
#include "sim/machine.hpp"

namespace picpar {
namespace {

using particles::ParticleArray;
using particles::ParticleRec;

/// run_pic folds PICPAR_CRASH_*/PICPAR_ANALYZE/PICPAR_TRACE* into the run
/// (the CI chaos job exports crash injection suite-wide), so every test
/// that pins exact results scrubs them and restores afterwards.
class ScenarioRun : public ::testing::Test {
protected:
  void SetUp() override {
    for (const char* k :
         {"PICPAR_CRASH_RANKS", "PICPAR_CRASH_PROB", "PICPAR_CRASH_MAX_T",
          "PICPAR_CRASH_LEASE", "PICPAR_ANALYZE", "PICPAR_TRACE",
          "PICPAR_TRACE_METRICS", "PICPAR_PARALLEL", "PICPAR_WORKERS"}) {
      const char* v = ::getenv(k);
      saved_.emplace_back(k,
                          v ? std::optional<std::string>(v) : std::nullopt);
      ::unsetenv(k);
    }
  }
  void TearDown() override {
    for (const auto& [k, v] : saved_) {
      if (v)
        ::setenv(k.c_str(), v->c_str(), 1);
      else
        ::unsetenv(k.c_str());
    }
  }

private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

/// The reference configuration all goldens in this file are pinned on.
pic::PicParams golden_params(const std::string& scenario) {
  pic::PicParams p;
  p.grid = mesh::GridDesc(32, 16);
  p.nranks = 8;
  p.scenario = scenario;
  p.init.total = 2048;
  p.init.drift_ux = 0.1;
  p.iterations = 12;
  p.policy = "periodic:4";
  return p;
}

// ---------------------------------------------------------------- registry

TEST(ScenarioRegistry, HoldsTheSixScenariosInOrder) {
  const std::vector<std::string> expected = {
      "uniform",          "irregular_beam", "two_stream",
      "weibel",           "beam_into_plasma", "moving_hotspot"};
  EXPECT_EQ(scenario::scenario_names(), expected);
  for (const auto& name : expected) {
    const auto* sc = scenario::find_scenario(name);
    ASSERT_NE(sc, nullptr) << name;
    EXPECT_EQ(sc->name, name);
    EXPECT_FALSE(sc->summary.empty()) << name;
    EXPECT_NE(sc->loadout, nullptr) << name;
    EXPECT_EQ(&scenario::get_scenario(name), sc);
  }
}

TEST(ScenarioRegistry, UnknownNamesAreRejected) {
  EXPECT_EQ(scenario::find_scenario("warp_core"), nullptr);
  EXPECT_THROW(scenario::get_scenario("warp_core"), std::invalid_argument);
  EXPECT_THROW(scenario::get_scenario(""), std::invalid_argument);
  // The scenario is the only workload path: run_pic defaults to the
  // uniform plasma and has no fallback for an empty name.
  EXPECT_EQ(pic::PicParams{}.scenario, "uniform");
  EXPECT_THROW(pic::run_pic(golden_params("")), std::invalid_argument);
}

TEST(ScenarioRegistry, LoadoutsProduceTheRequestedPopulation) {
  const mesh::GridDesc grid(32, 16);
  particles::InitParams init;
  init.total = 1000;
  for (const auto& name : scenario::scenario_names()) {
    const auto& sc = scenario::get_scenario(name);
    const auto p = sc.loadout(grid, init);
    EXPECT_EQ(p.size(), init.total) << name;
    EXPECT_EQ(p.nspecies(), sc.species.size()) << name;
    // Multi-species loadouts seed key = species id (the low bits of the
    // species-in-key encoding); ids must stay inside the table.
    for (std::size_t i = 0; i < p.size(); ++i)
      ASSERT_LT(p.key[i], p.nspecies()) << name;
  }
}

TEST(ScenarioRegistry, MultiSpeciesTablesAreWellFormed) {
  const auto& weibel = scenario::get_scenario("weibel");
  ASSERT_EQ(weibel.species.size(), 2u);
  EXPECT_GT(weibel.species[1].mass, weibel.species[0].mass)
      << "weibel ions must be heavier than its electrons";

  const auto& beam = scenario::get_scenario("beam_into_plasma");
  ASSERT_EQ(beam.species.size(), 2u);
  EXPECT_EQ(beam.boundary, scenario::Boundary::kAbsorbX);
  EXPECT_TRUE(beam.injector.enabled);
  EXPECT_EQ(beam.injector.species, 1);

  // A loadout's species table carries real charges: the weibel pair is a
  // neutral plasma (electron charge < 0 < ion charge).
  const mesh::GridDesc grid(32, 16);
  particles::InitParams init;
  init.total = 512;
  const auto wp = weibel.loadout(grid, init);
  EXPECT_LT(wp.species()[0].charge, 0.0);
  EXPECT_GT(wp.species()[1].charge, 0.0);
}

// ---------------------------------------------------------------- injector

TEST(ScenarioInjector, BatchesAreDeterministicPerIteration) {
  const auto& sc = scenario::get_scenario("beam_into_plasma");
  const mesh::GridDesc grid(32, 16);
  particles::InitParams init;
  init.total = 2048;
  const auto a = scenario::injector_batch(sc, grid, init, 3);
  const auto b = scenario::injector_batch(sc, grid, init, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
    EXPECT_EQ(a[i].ux, b[i].ux);
    EXPECT_EQ(a[i].uy, b[i].uy);
    EXPECT_EQ(a[i].uz, b[i].uz);
    EXPECT_EQ(a[i].key, b[i].key);
  }
  // Different iterations draw from different streams.
  const auto c = scenario::injector_batch(sc, grid, init, 4);
  ASSERT_EQ(c.size(), a.size());
  EXPECT_NE(c.front().x, a.front().x);
}

TEST(ScenarioInjector, BatchMatchesTheSpec) {
  const auto& sc = scenario::get_scenario("beam_into_plasma");
  const mesh::GridDesc grid(32, 16);
  particles::InitParams init;
  init.total = 2048;
  const auto rate = scenario::injector_rate(sc, init.total);
  EXPECT_GE(rate, 1u);
  const auto batch = scenario::injector_batch(sc, grid, init, 0);
  ASSERT_EQ(batch.size(), rate);
  for (const auto& r : batch) {
    // Emitted at the x = 0 edge strip, drifting into the domain, tagged
    // with the injector's species id (the caller finishes the encoding).
    EXPECT_GE(r.x, 0.0);
    EXPECT_LT(r.x, sc.injector.edge_fraction * grid.lx);
    EXPECT_GE(r.y, 0.0);
    EXPECT_LT(r.y, grid.ly);
    EXPECT_GT(r.ux, 0.0);
    EXPECT_EQ(r.key, static_cast<std::uint64_t>(sc.injector.species));
  }
}

TEST(ScenarioInjector, DisabledInjectorEmitsNothing) {
  const auto& sc = scenario::get_scenario("uniform");
  EXPECT_EQ(scenario::injector_rate(sc, 100000), 0u);
  const mesh::GridDesc grid(32, 16);
  particles::InitParams init;
  init.total = 2048;
  EXPECT_TRUE(scenario::injector_batch(sc, grid, init, 0).empty());
}

// ------------------------------------------------------------------ golden

struct GoldenRow {
  const char* scenario;
  std::uint64_t final_particles;
  std::uint64_t emitted;
  std::uint64_t absorbed;
  double kinetic_energy;
  double field_energy;
};

TEST_F(ScenarioRun, GoldenMetricsPerScenario) {
  // Pinned from the reference configuration (grid 32x16, 8 ranks, 2048
  // particles, 12 iterations, periodic:4, Hilbert). Exact equality: these
  // runs are bit-deterministic.
  const GoldenRow rows[] = {
      {"uniform", 2048, 0, 0, 7.2737573734453793, 10.369026060201929},
      {"irregular_beam", 2048, 0, 0, 8.1636000717653694, 9.5699722724070586},
      {"two_stream", 2048, 0, 0, 45.063213855838413, 12.341271680836153},
      {"weibel", 2048, 0, 0, 35.98982843861419, 0.70866133798696407},
      {"beam_into_plasma", 2040, 48, 56, 24.651169857100268,
       17.859587706440383},
      {"moving_hotspot", 2048, 0, 0, 7.5731547354402968, 10.383951158735632},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.scenario);
    const auto r = pic::run_pic(golden_params(row.scenario));
    EXPECT_EQ(r.initial_particles, 2048u);
    EXPECT_EQ(r.final_particles, row.final_particles);
    EXPECT_EQ(r.emitted_particles, row.emitted);
    EXPECT_EQ(r.absorbed_particles, row.absorbed);
    EXPECT_EQ(r.kinetic_energy, row.kinetic_energy);
    EXPECT_EQ(r.field_energy, row.field_energy);
    // The Lagrangian balancer equalizes counts exactly.
    EXPECT_EQ(r.final_imbalance, 1.0);
    EXPECT_EQ(r.iters.size(), 12u);
  }
}

TEST_F(ScenarioRun, InjectionConservesParticles) {
  const auto p = golden_params("beam_into_plasma");
  const auto r = pic::run_pic(p);
  // Charge/particle conservation under open boundaries: every particle is
  // accounted for as initial + emitted - absorbed.
  EXPECT_EQ(r.initial_particles + r.emitted_particles - r.absorbed_particles,
            r.final_particles);
  const auto& sc = scenario::get_scenario("beam_into_plasma");
  EXPECT_EQ(r.emitted_particles,
            scenario::injector_rate(sc, p.init.total) *
                static_cast<std::uint64_t>(p.iterations));
  EXPECT_GT(r.absorbed_particles, 0u)
      << "the absorbing +x boundary must see the drifting beam";
}

TEST_F(ScenarioRun, FieldSeedAndDriverActuallyActOnTheRun) {
  // weibel minus its B seed and moving_hotspot minus its driver would be
  // other scenarios entirely; cheapest check that the hooks fire: their
  // results differ from the plain uniform run's at identical init.
  const auto hotspot = pic::run_pic(golden_params("moving_hotspot"));
  const auto uniform = pic::run_pic(golden_params("uniform"));
  EXPECT_NE(hotspot.kinetic_energy, uniform.kinetic_energy);
  EXPECT_NE(hotspot.field_energy, uniform.field_energy);
}

// ------------------------------------------------------------------- modes

void expect_identical_runs(const pic::PicResult& a, const pic::PicResult& b) {
  ASSERT_EQ(a.iters.size(), b.iters.size());
  for (std::size_t i = 0; i < a.iters.size(); ++i) {
    EXPECT_EQ(a.iters[i].exec_seconds, b.iters[i].exec_seconds);
    EXPECT_EQ(a.iters[i].redistributed, b.iters[i].redistributed);
    EXPECT_EQ(a.iters[i].scatter_max_sent_bytes,
              b.iters[i].scatter_max_sent_bytes);
  }
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.kinetic_energy, b.kinetic_energy);
  EXPECT_EQ(a.field_energy, b.field_energy);
  EXPECT_EQ(a.total_charge, b.total_charge);
  EXPECT_EQ(a.initial_particles, b.initial_particles);
  EXPECT_EQ(a.final_particles, b.final_particles);
  EXPECT_EQ(a.emitted_particles, b.emitted_particles);
  EXPECT_EQ(a.absorbed_particles, b.absorbed_particles);
  EXPECT_EQ(a.final_imbalance, b.final_imbalance);
}

TEST_F(ScenarioRun, EveryScenarioIsBitIdenticalSequentialVsParallel) {
  for (const auto& name : scenario::scenario_names()) {
    SCOPED_TRACE(name);
    auto p = golden_params(name);
    const auto seq = pic::run_pic(p);
    p.exec.parallel = true;
    p.exec.workers = 4;
    const auto par = pic::run_pic(p);
    expect_identical_runs(seq, par);
  }
}

// --------------------------------------------------------------- balancers

TEST(ScenarioBalancer, FactoryParsesSpecs) {
  EXPECT_EQ(core::make_balancer("")->name(), "lagrange");
  EXPECT_EQ(core::make_balancer("lagrange")->name(), "lagrange");
  EXPECT_TRUE(core::make_balancer("lagrange")->lagrangian());
  EXPECT_EQ(core::make_balancer("eulerian")->name(), "eulerian");
  EXPECT_FALSE(core::make_balancer("eulerian")->lagrangian());
  EXPECT_EQ(core::make_balancer("sfcweight")->name(), "sfcweight");
  EXPECT_EQ(core::make_balancer("sfcweight:2.5")->name(), "sfcweight:2.5");
  EXPECT_THROW(core::make_balancer("zoltan"), std::invalid_argument);
  EXPECT_THROW(core::make_balancer("sfcweight:x"), std::invalid_argument);
  EXPECT_THROW(core::make_balancer("sfcweight:-1"), std::invalid_argument);
  EXPECT_THROW(core::make_balancer("sfcweight:0"), std::invalid_argument);
}

TEST(ScenarioBalancer, LagrangianNeverComputesBounds) {
  core::LagrangianBalancer b;
  sim::Machine m(2, sim::CostModel::zero());
  m.run([&](sim::Comm& c) {
    ParticleArray p(-1.0, 1.0);
    sfc::RowMajorCurve curve(4, 4);
    sfc::IndexCache cells(curve, 4, 4);
    core::SortWork w;
    EXPECT_THROW(b.compute_bounds(c, p, cells, w), std::logic_error);
  });
}

TEST(ScenarioBalancer, WeightedBoundsAreCellAlignedAndRankIdentical) {
  // Two species (stride 2) on a 4x4 row-major grid, population piled onto
  // the first cells: bounds must land on cell edges (low bits = stride-1),
  // be non-decreasing, end at the max key, and agree across ranks.
  constexpr int kRanks = 4;
  core::EulerianBalancer bal;
  std::vector<std::vector<std::uint64_t>> per_rank(kRanks);
  sim::Machine m(kRanks, sim::CostModel::zero());
  m.run([&](sim::Comm& c) {
    ParticleArray p(std::vector<particles::Species>{{-1.0, 1.0}, {1.0, 4.0}});
    // 8 particles per rank, all on cells 0..3, alternating species.
    for (std::uint64_t i = 0; i < 8; ++i) {
      ParticleRec r;
      r.key = (i % 4) * 2 + (i % 2);
      p.push_back(r);
    }
    sfc::RowMajorCurve curve(4, 4);
    sfc::IndexCache cells(curve, 4, 4);
    core::SortWork w;
    per_rank[static_cast<std::size_t>(c.rank())] =
        bal.compute_bounds(c, p, cells, w);
  });
  const auto& bounds = per_rank[0];
  ASSERT_EQ(bounds.size(), static_cast<std::size_t>(kRanks));
  for (int r = 1; r < kRanks; ++r) EXPECT_EQ(per_rank[r], bounds);
  for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
    EXPECT_LE(bounds[r], bounds[r + 1]);
    EXPECT_EQ(bounds[r] % 2, 1u) << "bound " << r << " not cell-aligned";
  }
  EXPECT_EQ(bounds.back(), std::numeric_limits<std::uint64_t>::max());
}

TEST_F(ScenarioRun, WeightedBalancersRunConserveAndStayDeterministic) {
  for (const char* spec : {"eulerian", "sfcweight", "sfcweight:4"}) {
    SCOPED_TRACE(spec);
    auto p = golden_params("irregular_beam");
    p.partitioner.balancer = spec;
    const auto seq = pic::run_pic(p);
    EXPECT_EQ(seq.final_particles, 2048u);
    EXPECT_EQ(seq.iters.size(), 12u);
    // Cell-aligned bounds trade exact count balance for alignment; the
    // blob's central cells bound how uneven the split can get.
    EXPECT_GE(seq.final_imbalance, 1.0);
    EXPECT_LT(seq.final_imbalance, 3.0);
    p.exec.parallel = true;
    p.exec.workers = 4;
    const auto par = pic::run_pic(p);
    expect_identical_runs(seq, par);
  }
}

TEST_F(ScenarioRun, WeightedBalancersComposeWithInjectionScenarios) {
  auto p = golden_params("beam_into_plasma");
  p.partitioner.balancer = "eulerian";
  const auto r = pic::run_pic(p);
  EXPECT_EQ(r.initial_particles + r.emitted_particles - r.absorbed_particles,
            r.final_particles);
}

TEST_F(ScenarioRun, AlphaBiasesTowardCellBalance) {
  // Larger alpha weights mesh cells over particles, so on a concentrated
  // blob the particle-count imbalance must grow with alpha.
  auto run_with = [](const char* spec) {
    auto p = golden_params("irregular_beam");
    p.partitioner.balancer = spec;
    return pic::run_pic(p).final_imbalance;
  };
  EXPECT_LT(run_with("eulerian"), run_with("sfcweight:4"));
}

}  // namespace
}  // namespace picpar
