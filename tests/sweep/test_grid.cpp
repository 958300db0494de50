// Grid-file parsing and deterministic cross-product expansion.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "scenario/scenario.hpp"
#include "sweep/grid.hpp"
#include "sweep/sweep.hpp"

namespace picpar::sweep {
namespace {

TEST(SweepGridParse, EmptyTextYieldsDefaults) {
  const SweepGrid g = parse_grid("");
  EXPECT_EQ(g.scenario, std::vector<std::string>{"uniform"});
  EXPECT_EQ(g.mesh, std::vector<std::string>{"128x64"});
  EXPECT_EQ(g.particles, std::vector<std::uint64_t>{20000});
  EXPECT_EQ(g.ranks, std::vector<int>{32});
  EXPECT_EQ(g.curve, std::vector<std::string>{"hilbert"});
  EXPECT_EQ(g.policy, std::vector<std::string>{"sar"});
  EXPECT_EQ(g.seed, std::vector<std::uint64_t>{1});
  EXPECT_EQ(g.iterations, std::vector<int>{60});
}

TEST(SweepGridParse, ParsesAxesCommentsAndWhitespace) {
  const SweepGrid g = parse_grid(
      "# a comment\n"
      "\n"
      "  mesh  =  64x32 , 128x64 \n"
      "policy = static, periodic:10, sar\n"
      "ranks=8,16\r\n"
      "seed = 3\n");
  EXPECT_EQ(g.mesh, (std::vector<std::string>{"64x32", "128x64"}));
  EXPECT_EQ(g.policy,
            (std::vector<std::string>{"static", "periodic:10", "sar"}));
  EXPECT_EQ(g.ranks, (std::vector<int>{8, 16}));
  EXPECT_EQ(g.seed, std::vector<std::uint64_t>{3});
  EXPECT_EQ(g.scenario, std::vector<std::string>{"uniform"});  // untouched
}

TEST(SweepGridParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_grid("mesh 64x32\n"), std::runtime_error);  // no '='
  EXPECT_THROW(parse_grid("wormhole = 1\n"), std::runtime_error);
  EXPECT_THROW(parse_grid("ranks = 8\nranks = 16\n"), std::runtime_error);
  EXPECT_THROW(parse_grid("ranks = 8,,16\n"), std::runtime_error);
  EXPECT_THROW(parse_grid("ranks = \n"), std::runtime_error);
  EXPECT_THROW(parse_grid("ranks = eight\n"), std::runtime_error);
  EXPECT_THROW(parse_grid("particles = -5\n"), std::runtime_error);
}

TEST(SweepGridExpand, CrossProductInDeclaredOrder) {
  SweepGrid g;
  g.scenario = {"uniform", "irregular_beam"};
  g.policy = {"static", "sar"};
  g.seed = {1, 2};
  g.mesh = {"32x16"};
  g.particles = {1000};
  g.ranks = {4};
  g.iterations = {5};
  const auto jobs = expand_grid(g);
  ASSERT_EQ(jobs.size(), 8u);
  // scenario outermost, then policy, seed innermost.
  EXPECT_EQ(jobs[0].label, "uniform/32x16/p1000/r4/hilbert/static/s1/i5");
  EXPECT_EQ(jobs[1].label, "uniform/32x16/p1000/r4/hilbert/static/s2/i5");
  EXPECT_EQ(jobs[2].label, "uniform/32x16/p1000/r4/hilbert/sar/s1/i5");
  EXPECT_EQ(jobs[4].label,
            "irregular_beam/32x16/p1000/r4/hilbert/static/s1/i5");
  EXPECT_EQ(jobs[7].label, "irregular_beam/32x16/p1000/r4/hilbert/sar/s2/i5");

  const auto& p = jobs[7].params;
  EXPECT_EQ(p.grid.nx, 32u);
  EXPECT_EQ(p.grid.ny, 16u);
  EXPECT_EQ(p.scenario, "irregular_beam");
  EXPECT_EQ(p.policy, "sar");
  EXPECT_EQ(p.nranks, 4);
  EXPECT_EQ(p.init.total, 1000u);
  EXPECT_EQ(p.init.seed, 2u);
  EXPECT_EQ(p.iterations, 5);
  // Paper base setup (matches bench::paper_params).
  EXPECT_EQ(p.curve, sfc::CurveKind::kHilbert);
  EXPECT_EQ(p.grid_decomp, pic::GridDecomp::kCurve);
  EXPECT_EQ(p.solver, pic::FieldSolveKind::kMaxwell);
  EXPECT_EQ(p.init.drift_ux, 0.12);
}

TEST(SweepGridExpand, ScenarioAxisAcceptsTheScenarioLibrary) {
  SweepGrid g;
  g.scenario = scenario::scenario_names();
  g.mesh = {"32x16"};
  g.particles = {1000};
  g.ranks = {4};
  g.iterations = {5};
  const auto jobs = expand_grid(g);
  ASSERT_EQ(jobs.size(), 6u);
  // Render the CSV from the jobs alone; its scenario column needs no run.
  SweepReport report;
  for (const auto& j : jobs) {
    Outcome o;
    o.label = j.label;
    o.fingerprint = j.params.fingerprint();
    o.params = j.params;
    report.outcomes.push_back(o);
  }
  std::istringstream csv(comparison_csv(report));
  const auto scenario_column = [&csv] {
    std::string line, cell;
    std::getline(csv, line);
    std::istringstream row(line);
    for (int c = 0; c < 4; ++c) std::getline(row, cell, ',');
    return cell;
  };
  ASSERT_EQ(scenario_column(), "scenario");
  // Every name reaches the config, the label and the CSV unchanged, and
  // no two names share a cache identity.
  std::set<std::string> fingerprints;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string& name = g.scenario[i];
    SCOPED_TRACE(name);
    EXPECT_EQ(jobs[i].params.scenario, name);
    EXPECT_EQ(jobs[i].label, name + "/32x16/p1000/r4/hilbert/sar/s1/i5");
    EXPECT_EQ(scenario_column(), name);
    fingerprints.insert(jobs[i].params.fingerprint());
  }
  EXPECT_EQ(fingerprints.size(), jobs.size());
}

TEST(SweepGridExpand, DistributionNamesAreNotScenarios) {
  for (const char* legacy : {"gaussian", "irregular", "ring"}) {
    SCOPED_TRACE(legacy);
    SweepGrid g;
    g.scenario = {legacy};
    try {
      expand_grid(g);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      // The error names every registry entry, so the fix is at hand.
      const std::string what = e.what();
      for (const auto& name : scenario::scenario_names())
        EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(SweepGridExpand, PolicyAxisComposesDecisionAndBalancer) {
  SweepGrid g;
  g.policy = {"sar", "periodic:10+eulerian", "static+sfcweight:2.5"};
  g.mesh = {"32x16"};
  g.particles = {1000};
  g.ranks = {4};
  g.iterations = {5};
  const auto jobs = expand_grid(g);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].params.policy, "sar");
  EXPECT_EQ(jobs[0].params.partitioner.balancer, "lagrange");
  EXPECT_EQ(jobs[1].params.policy, "periodic:10");
  EXPECT_EQ(jobs[1].params.partitioner.balancer, "eulerian");
  EXPECT_EQ(jobs[2].params.policy, "static");
  EXPECT_EQ(jobs[2].params.partitioner.balancer, "sfcweight:2.5");
  // The composed spec survives into the label verbatim.
  EXPECT_EQ(jobs[1].label,
            "uniform/32x16/p1000/r4/hilbert/periodic:10+eulerian/s1/i5");
  // Decision and balancer halves split the cache key.
  EXPECT_NE(jobs[0].params.fingerprint(), jobs[1].params.fingerprint());
  EXPECT_NE(jobs[1].params.fingerprint(), jobs[2].params.fingerprint());
}

TEST(SweepGridExpand, ExpansionIsDeterministic) {
  SweepGrid g;
  g.curve = {"hilbert", "morton", "snake"};
  g.ranks = {4, 8};
  const auto a = expand_grid(g);
  const auto b = expand_grid(g);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].params.fingerprint(), b[i].params.fingerprint());
  }
}

TEST(SweepGridExpand, RejectsBadValues) {
  for (const char* text :
       {"mesh = 64\n", "mesh = x64\n", "mesh = 64x\n", "scenario = plasma9\n",
        "curve = zigzag\n", "policy = whenever\n", "ranks = 0\n",
        "particles = 0\n", "iterations = 0\n", "policy = sar+zoltan\n",
        "policy = whenever+eulerian\n", "policy = sar+sfcweight:x\n"}) {
    EXPECT_THROW(expand_grid(parse_grid(text)), std::runtime_error)
        << "accepted: " << text;
  }
}

}  // namespace
}  // namespace picpar::sweep
