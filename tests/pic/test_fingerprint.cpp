// PicParams::canonical()/fingerprint() — the content address the sweep
// result cache keys on. The contract under test: every semantically
// meaningful field changes the fingerprint; execution mode and trace sink
// paths do not; environment overrides that change run semantics do; and
// the bytes are process-independent (pinned golden value).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pic/config.hpp"

namespace picpar::pic {
namespace {

/// The canonical form folds in PICPAR_CRASH_*, PICPAR_ANALYZE, and
/// PICPAR_TRACE*, so these tests scrub them (the CI chaos job exports
/// crash injection suite-wide) and restore afterwards.
class Fingerprint : public ::testing::Test {
protected:
  void SetUp() override {
    for (const char* k :
         {"PICPAR_CRASH_RANKS", "PICPAR_CRASH_PROB", "PICPAR_CRASH_MAX_T",
          "PICPAR_CRASH_LEASE", "PICPAR_ANALYZE", "PICPAR_TRACE",
          "PICPAR_TRACE_METRICS"}) {
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

PicParams base_params() {
  PicParams p;
  p.grid = mesh::GridDesc(32, 16);
  p.nranks = 8;
  p.init.total = 2000;
  p.iterations = 10;
  return p;
}

TEST_F(Fingerprint, IsStableHexAndMatchesCanonical) {
  const auto p = base_params();
  const std::string fp = p.fingerprint();
  ASSERT_EQ(fp.size(), 16u);
  for (const char c : fp)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << fp;
  EXPECT_EQ(fp, p.fingerprint());
  EXPECT_EQ(p.canonical(), p.canonical());
}

TEST_F(Fingerprint, EverySemanticFieldChangesTheFingerprint) {
  const auto base = base_params();
  const std::string fp0 = base.fingerprint();

  const std::vector<std::pair<const char*, std::function<void(PicParams&)>>>
      mutations = {
          {"grid.nx", [](PicParams& p) { p.grid = mesh::GridDesc(64, 16); }},
          {"grid.ny", [](PicParams& p) { p.grid = mesh::GridDesc(32, 32); }},
          {"grid.lx",
           [](PicParams& p) { p.grid = mesh::GridDesc(32, 16, 64.0, 16.0); }},
          {"grid.ly",
           [](PicParams& p) { p.grid = mesh::GridDesc(32, 16, 32.0, 32.0); }},
          {"nranks", [](PicParams& p) { p.nranks = 16; }},
          {"scenario", [](PicParams& p) { p.scenario = "weibel"; }},
          {"init.total", [](PicParams& p) { p.init.total = 2001; }},
          {"init.vth", [](PicParams& p) { p.init.vth += 0.01; }},
          {"init.drift_ux", [](PicParams& p) { p.init.drift_ux = 0.2; }},
          {"init.drift_uy", [](PicParams& p) { p.init.drift_uy = 0.2; }},
          {"init.sigma_fraction",
           [](PicParams& p) { p.init.sigma_fraction += 0.01; }},
          {"init.omega_p", [](PicParams& p) { p.init.omega_p = 1.0; }},
          {"init.seed", [](PicParams& p) { p.init.seed += 1; }},
          {"curve",
           [](PicParams& p) { p.curve = sfc::CurveKind::kMorton; }},
          {"grid_decomp",
           [](PicParams& p) { p.grid_decomp = GridDecomp::kBlock; }},
          {"solver",
           [](PicParams& p) { p.solver = FieldSolveKind::kPoisson; }},
          {"iterations", [](PicParams& p) { p.iterations = 11; }},
          {"dt", [](PicParams& p) { p.dt = 0.25; }},
          {"policy", [](PicParams& p) { p.policy = "periodic:5"; }},
          {"dedup",
           [](PicParams& p) { p.dedup = core::DedupPolicy::kHash; }},
          {"partitioner.buckets_per_rank",
           [](PicParams& p) { p.partitioner.buckets_per_rank += 1; }},
          {"partitioner.samples_per_rank",
           [](PicParams& p) { p.partitioner.samples_per_rank += 1; }},
          {"partitioner.balancer",
           [](PicParams& p) { p.partitioner.balancer = "eulerian"; }},
          {"costs.scatter_per_vertex",
           [](PicParams& p) { p.costs.scatter_per_vertex += 1.0; }},
          {"costs.field_per_node",
           [](PicParams& p) { p.costs.field_per_node += 1.0; }},
          {"costs.gather_per_vertex",
           [](PicParams& p) { p.costs.gather_per_vertex += 1.0; }},
          {"costs.push_per_particle",
           [](PicParams& p) { p.costs.push_per_particle += 1.0; }},
          {"machine.tau", [](PicParams& p) { p.machine.tau *= 2.0; }},
          {"machine.mu", [](PicParams& p) { p.machine.mu *= 2.0; }},
          {"machine.delta", [](PicParams& p) { p.machine.delta *= 2.0; }},
          {"machine.recv_copy_mu",
           [](PicParams& p) { p.machine.recv_copy_mu += 1e-9; }},
          {"faults.seed", [](PicParams& p) { p.faults.seed += 1; }},
          {"faults.transient_slow_prob",
           [](PicParams& p) { p.faults.transient_slow_prob = 0.1; }},
          {"faults.transient_slow_factor",
           [](PicParams& p) { p.faults.transient_slow_factor += 1.0; }},
          {"faults.straggler_ranks",
           [](PicParams& p) { p.faults.straggler_ranks = {2}; }},
          {"faults.straggler_factor",
           [](PicParams& p) { p.faults.straggler_factor += 1.0; }},
          {"faults.latency_jitter_prob",
           [](PicParams& p) { p.faults.latency_jitter_prob = 0.1; }},
          {"faults.latency_jitter_max_seconds",
           [](PicParams& p) { p.faults.latency_jitter_max_seconds = 1e-3; }},
          {"faults.corrupt_prob",
           [](PicParams& p) { p.faults.corrupt_prob = 0.05; }},
          {"faults.duplicate_prob",
           [](PicParams& p) { p.faults.duplicate_prob = 0.05; }},
          {"faults.max_retries",
           [](PicParams& p) { p.faults.max_retries += 1; }},
          {"faults.memory_fault_prob",
           [](PicParams& p) { p.faults.memory_fault_prob = 0.01; }},
          {"faults.crash_schedule",
           [](PicParams& p) { p.faults.crash_schedule = {{3, 0.5}}; }},
          {"faults.crash_prob",
           [](PicParams& p) { p.faults.crash_prob = 0.01; }},
          {"faults.crash_vtime_max",
           [](PicParams& p) { p.faults.crash_vtime_max = 2.0; }},
          {"faults.crash_lease_seconds",
           [](PicParams& p) { p.faults.crash_lease_seconds += 0.001; }},
          {"validate.check_every",
           [](PicParams& p) { p.validate.check_every = 1; }},
          {"validate.checkpoint_every",
           [](PicParams& p) { p.validate.checkpoint_every = 5; }},
          {"validate.max_recoveries",
           [](PicParams& p) { p.validate.max_recoveries += 1; }},
          {"validate.invariants.balance_tolerance",
           // Default is 0.0 (check disabled), so add rather than scale.
           [](PicParams& p) { p.validate.invariants.balance_tolerance += 1.5; }},
          {"validate.invariants.balance_slack",
           [](PicParams& p) { p.validate.invariants.balance_slack += 1.0; }},
          {"validate.invariants.energy_factor",
           // Default is 0.0 (check disabled), so add rather than scale.
           [](PicParams& p) { p.validate.invariants.energy_factor += 2.0; }},
          {"validate.invariants.verify_keys",
           [](PicParams& p) {
             p.validate.invariants.verify_keys =
                 !p.validate.invariants.verify_keys;
           }},
          {"analyze.enabled",
           [](PicParams& p) { p.analyze.enabled = true; }},
          {"analyze.audit_determinism",
           [](PicParams& p) { p.analyze.audit_determinism = true; }},
          {"trace.enabled", [](PicParams& p) { p.trace.enabled = true; }},
          {"sample_energy_every",
           [](PicParams& p) { p.sample_energy_every = 5; }},
      };

  for (const auto& [field, mutate] : mutations) {
    auto p = base;
    mutate(p);
    EXPECT_NE(p.fingerprint(), fp0)
        << "mutating " << field << " did not change the fingerprint";
  }

  // The table covers every canonical key, in order, and nothing else: a
  // new key cannot skip its check and a deleted one cannot leave an entry.
  std::vector<std::string> keys;
  std::istringstream lines(base.canonical());
  for (std::string line; std::getline(lines, line);)
    keys.push_back(line.substr(0, line.find('=')));
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.front(), "picpar-params");
  keys.erase(keys.begin());
  std::vector<std::string> names;
  for (const auto& m : mutations) names.emplace_back(m.first);
  EXPECT_EQ(names, keys);
}

TEST_F(Fingerprint, ExecutionModeDoesNotChangeTheBytes) {
  // The parallel engine is bit-identical to the sequential scheduler
  // (DESIGN.md), so one cache entry must serve both execution modes.
  const auto base = base_params();
  auto par = base;
  par.exec.parallel = true;
  par.exec.workers = 7;
  EXPECT_EQ(par.canonical(), base.canonical());
  EXPECT_EQ(par.fingerprint(), base.fingerprint());
}

TEST_F(Fingerprint, TracePathsAreSinksNotSemantics) {
  auto by_flag = base_params();
  by_flag.trace.enabled = true;
  auto by_path = base_params();
  by_path.trace.path = "/tmp/some-trace.json";
  auto by_metrics_path = base_params();
  by_metrics_path.trace.metrics_path = "/tmp/some-metrics.json";
  // All three enable tracing; where the files land must not split the
  // cache key.
  EXPECT_EQ(by_flag.fingerprint(), by_path.fingerprint());
  EXPECT_EQ(by_flag.fingerprint(), by_metrics_path.fingerprint());
  EXPECT_NE(by_flag.fingerprint(), base_params().fingerprint());
}

TEST_F(Fingerprint, EnvironmentOverridesFoldIn) {
  const auto base = base_params();
  const std::string fp0 = base.fingerprint();

  ::setenv("PICPAR_CRASH_RANKS", "1@0.8", 1);
  EXPECT_NE(base.fingerprint(), fp0) << "PICPAR_CRASH_RANKS ignored";
  ::unsetenv("PICPAR_CRASH_RANKS");

  ::setenv("PICPAR_ANALYZE", "1", 1);
  EXPECT_NE(base.fingerprint(), fp0) << "PICPAR_ANALYZE ignored";
  ::unsetenv("PICPAR_ANALYZE");

  ::setenv("PICPAR_TRACE", "/tmp/t.json", 1);
  EXPECT_NE(base.fingerprint(), fp0) << "PICPAR_TRACE ignored";
  ::unsetenv("PICPAR_TRACE");

  // Execution-mode variables are excluded by the determinism contract.
  ::setenv("PICPAR_PARALLEL", "1", 1);
  ::setenv("PICPAR_WORKERS", "4", 1);
  EXPECT_EQ(base.fingerprint(), fp0);
  ::unsetenv("PICPAR_PARALLEL");
  ::unsetenv("PICPAR_WORKERS");

  EXPECT_EQ(base.fingerprint(), fp0);
}

TEST_F(Fingerprint, CrashScheduleEntriesPastNranksAreDropped) {
  // run_pic ignores scheduled crashes aimed past the rank count, so they
  // must not split the cache key either.
  const auto base = base_params();
  auto ghost = base;
  ghost.faults.crash_schedule = {{base.nranks + 5, 0.5}};
  EXPECT_EQ(ghost.fingerprint(), base.fingerprint());
  auto real = base;
  real.faults.crash_schedule = {{base.nranks - 1, 0.5}};
  EXPECT_NE(real.fingerprint(), base.fingerprint());
}

TEST_F(Fingerprint, GoldenValueIsProcessIndependent) {
  // Pinned against a fixed configuration: a mismatch means the canonical
  // format changed, which silently invalidates every cached sweep result.
  // If the change is intentional, bump kCanonicalVersion in fingerprint.cpp
  // and re-pin.
  const auto p = base_params();
  EXPECT_EQ(p.fingerprint(), "66dc53c0f29d709c");
}

}  // namespace
}  // namespace picpar::pic
