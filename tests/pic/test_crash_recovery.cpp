// Fail-stop crash recovery in the PIC driver: shrink-to-survivors restart
// from the shared checkpoint store, particle conservation across the
// membership change, determinism of the whole recovery trajectory (same
// seed, sequential vs parallel), analyzer cleanliness through recovery, and
// the PICPAR_CRASH_* configuration surface.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pic/simulation.hpp"

namespace picpar::pic {
namespace {

/// These tests assert exact crash counts and bit-identical trajectories, so
/// they must not inherit PICPAR_CRASH_* from the environment (the CI chaos
/// job runs the suite with injection armed). Clear the variables for the
/// test body and restore them afterwards.
class CrashRecovery : public ::testing::Test {
protected:
  void SetUp() override {
    for (const char* k :
         {"PICPAR_CRASH_RANKS", "PICPAR_CRASH_PROB", "PICPAR_CRASH_MAX_T",
          "PICPAR_CRASH_LEASE"}) {
      const char* v = ::getenv(k);
      saved_.emplace_back(
          k, v ? std::optional<std::string>(v) : std::nullopt);
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
  p.scenario = "irregular_beam";
  p.init.total = 2048;
  p.init.drift_ux = 0.12;
  p.init.drift_uy = 0.07;
  p.iterations = 20;
  p.policy = "periodic:5";
  p.machine = sim::CostModel::cm5();
  p.validate.checkpoint_every = 4;
  return p;
}

/// Virtual makespan of the crash-free run — crash times are placed as
/// fractions of it so the scenarios stay meaningful if costs change.
double clean_makespan(PicParams p) {
  p.faults = sim::FaultConfig{};
  return run_pic(p).total_seconds;
}

void expect_same_result(const PicResult& a, const PicResult& b) {
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.kinetic_energy, b.kinetic_energy);
  EXPECT_EQ(a.field_energy, b.field_energy);
  EXPECT_EQ(a.total_charge, b.total_charge);
  EXPECT_EQ(a.final_particles, b.final_particles);
  EXPECT_EQ(a.crash_count, b.crash_count);
  EXPECT_EQ(a.crash_recoveries, b.crash_recoveries);
  EXPECT_EQ(a.final_ranks, b.final_ranks);
  EXPECT_EQ(a.mttr_seconds_total, b.mttr_seconds_total);
  EXPECT_EQ(a.crash_lost_particles, b.crash_lost_particles);
  EXPECT_EQ(a.crash_restored_particles, b.crash_restored_particles);
  EXPECT_EQ(a.final_imbalance, b.final_imbalance);
  ASSERT_EQ(a.iters.size(), b.iters.size());
  for (std::size_t i = 0; i < a.iters.size(); ++i) {
    EXPECT_EQ(a.iters[i].exec_seconds, b.iters[i].exec_seconds) << "iter " << i;
    EXPECT_EQ(a.iters[i].loop_seconds, b.iters[i].loop_seconds) << "iter " << i;
    EXPECT_EQ(a.iters[i].crash_recovered, b.iters[i].crash_recovered);
  }
  ASSERT_EQ(a.machine.crashes.size(), b.machine.crashes.size());
  for (std::size_t i = 0; i < a.machine.crashes.size(); ++i) {
    EXPECT_EQ(a.machine.crashes[i].rank, b.machine.crashes[i].rank);
    EXPECT_EQ(a.machine.crashes[i].vtime, b.machine.crashes[i].vtime);
  }
}

TEST_F(CrashRecovery, SingleCrashCompletesAndConservesParticles) {
  auto p = base_params();
  const double T = clean_makespan(p);
  p.faults.crash_schedule = {{3, 0.45 * T}};
  const auto r = run_pic(p);

  EXPECT_EQ(r.crash_count, 1);
  EXPECT_EQ(r.final_ranks, p.nranks - 1);
  EXPECT_GE(r.crash_recoveries, 1);
  EXPECT_GT(r.mttr_seconds_total, 0.0);
  // Everything in the committed checkpoint was restored: the dead rank's
  // subdomain came back from the store, so the population is conserved.
  EXPECT_EQ(r.final_particles, r.initial_particles);
  EXPECT_EQ(r.crash_restored_particles, r.crash_lost_particles);
  EXPECT_GT(r.crash_restored_particles, 0u);
  // The resume iteration is flagged in the per-iteration records.
  bool flagged = false;
  for (const auto& it : r.iters) flagged = flagged || it.crash_recovered;
  EXPECT_TRUE(flagged);
  // Post-recovery balance is sane: max/mean over survivors stays below the
  // survivor count (the degenerate all-on-one-rank bound).
  EXPECT_GE(r.final_imbalance, 1.0);
  EXPECT_LT(r.final_imbalance, static_cast<double>(r.final_ranks));
}

TEST_F(CrashRecovery, SameSeedSameTrajectory) {
  auto p = base_params();
  const double T = clean_makespan(p);
  p.faults.crash_schedule = {{5, 0.35 * T}};
  const auto a = run_pic(p);
  const auto b = run_pic(p);
  EXPECT_EQ(a.crash_count, 1);
  expect_same_result(a, b);
}

TEST_F(CrashRecovery, SequentialAndParallelAreBitIdentical) {
  auto p = base_params();
  const double T = clean_makespan(p);
  p.faults.crash_schedule = {{2, 0.5 * T}};
  p.trace.enabled = true;  // compare the exported artifacts too

  const auto seq = run_pic(p);
  p.exec.parallel = true;
  const auto par = run_pic(p);

  EXPECT_EQ(seq.crash_count, 1);
  expect_same_result(seq, par);
  EXPECT_EQ(seq.metrics_json, par.metrics_json);
  EXPECT_EQ(seq.timeline_csv, par.timeline_csv);
}

TEST_F(CrashRecovery, CascadeOfTwoCrashes) {
  auto p = base_params();
  const double T = clean_makespan(p);
  p.faults.crash_schedule = {{1, 0.3 * T}, {6, 0.6 * T}};
  const auto r = run_pic(p);

  EXPECT_EQ(r.crash_count, 2);
  EXPECT_EQ(r.final_ranks, p.nranks - 2);
  EXPECT_GE(r.crash_recoveries, 2);
  EXPECT_EQ(r.final_particles, r.initial_particles);
  EXPECT_EQ(r.crash_restored_particles, r.crash_lost_particles);
}

// A crash inside a checkpoint write leaves that take torn; the survivors
// resume from the last committed take, so their next take reuses the torn
// one's sequence number with a smaller group. Rank 3's (and rank 7's)
// iteration-3 write spans vtime 0.318668-0.318783 s here, and the second
// crash forces a recovery from that next take: a shard of the torn take
// past the new group size must not be restored with it. Restored counts
// what the survivors appended from dead owners' shards, so it must equal
// what those shards held.
TEST_F(CrashRecovery, CrashInsideACheckpointWriteThenAnotherCrash) {
  auto p = base_params();
  p.faults.crash_schedule = {{3, 0.3187}, {5, 0.5}};
  const auto r = run_pic(p);
  EXPECT_EQ(r.crash_count, 2);
  EXPECT_EQ(r.final_particles, r.initial_particles);
  EXPECT_GT(r.crash_lost_particles, 0u);
  EXPECT_EQ(r.crash_restored_particles, r.crash_lost_particles);
}

TEST_F(CrashRecovery, CrashInsideTheLastShardsWriteThenAnotherCrash) {
  auto p = base_params();
  p.faults.crash_schedule = {{7, 0.3187}, {5, 0.5}};
  const auto r = run_pic(p);
  EXPECT_EQ(r.crash_count, 2);
  EXPECT_EQ(r.final_particles, r.initial_particles);
  EXPECT_GT(r.crash_lost_particles, 0u);
  EXPECT_EQ(r.crash_restored_particles, r.crash_lost_particles);
}

// The energy history is written by whichever rank is group rank 0. A crash
// of world rank 0 hands that role to world rank 1, which must keep the
// samples taken before the restore point, as any other crash does.
TEST_F(CrashRecovery, EnergyHistorySurvivesACrashOfWorldRankZero) {
  auto p = base_params();
  p.sample_energy_every = 2;
  const double T = clean_makespan(p);
  p.faults.crash_schedule = {{0, 0.45 * T}};
  const auto r0 = run_pic(p);
  p.faults.crash_schedule = {{3, 0.45 * T}};
  const auto r3 = run_pic(p);

  EXPECT_EQ(r0.crash_count, 1);
  EXPECT_EQ(r3.crash_count, 1);
  ASSERT_EQ(r3.energy_history.size(), 10u);
  ASSERT_EQ(r0.energy_history.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r0.energy_history[i].iter, static_cast<int>(2 * i + 1));
    EXPECT_EQ(r0.energy_history[i].iter, r3.energy_history[i].iter);
    EXPECT_EQ(r0.energy_history[i].field, r3.energy_history[i].field);
    EXPECT_EQ(r0.energy_history[i].kinetic, r3.energy_history[i].kinetic);
  }
}

TEST_F(CrashRecovery, CrashBeforeFirstCommitReinitializes) {
  // A crash so early that no checkpoint has committed: survivors restart
  // from the (deterministically regenerated) initial conditions on the
  // shrunken group and still finish with a full population.
  auto p = base_params();
  p.faults.crash_schedule = {{0, 1e-9}};
  const auto r = run_pic(p);

  EXPECT_EQ(r.crash_count, 1);
  EXPECT_EQ(r.final_ranks, p.nranks - 1);
  EXPECT_GE(r.crash_recoveries, 1);
  EXPECT_EQ(r.final_particles, r.initial_particles);
  // Nothing was in the store yet, so nothing was "restored" from it.
  EXPECT_EQ(r.crash_restored_particles, 0u);
  ASSERT_FALSE(r.iters.empty());
}

TEST_F(CrashRecovery, ArmedButUnfiredScheduleIsDeterministic) {
  // A schedule the run never reaches exercises the checkpoint-store path
  // (commit barriers) without a crash; the result must be reproducible and
  // crash-free.
  auto p = base_params();
  p.faults.crash_schedule = {{1, 1e9}};
  const auto a = run_pic(p);
  const auto b = run_pic(p);
  EXPECT_EQ(a.crash_count, 0);
  EXPECT_EQ(a.crash_recoveries, 0);
  EXPECT_EQ(a.final_ranks, p.nranks);
  EXPECT_EQ(a.mttr_seconds_total, 0.0);
  expect_same_result(a, b);
}

TEST_F(CrashRecovery, AnalyzerAndAuditStayCleanThroughRecovery) {
  auto p = base_params();
  const double T = clean_makespan(p);
  p.faults.crash_schedule = {{4, 0.4 * T}};
  p.analyze.enabled = true;
  p.analyze.audit_determinism = true;
  const auto r = run_pic(p);

  EXPECT_EQ(r.crash_count, 1);
  EXPECT_GE(r.crash_recoveries, 1);
  // Epoch-tagged matching: the membership change must not surface as false
  // races, and the double-run audit must reproduce the recovery exactly.
  EXPECT_EQ(r.analysis_findings, 0) << r.analysis_report;
  EXPECT_EQ(r.determinism_audit, 1);
}

TEST_F(CrashRecovery, MetricsReportRecoveryAndMemoryPeak) {
  auto p = base_params();
  const double T = clean_makespan(p);
  p.faults.crash_schedule = {{3, 0.45 * T}};
  p.trace.enabled = true;
  const auto r = run_pic(p);

  ASSERT_TRUE(r.traced);
  EXPECT_NE(r.metrics_json.find("recovery.count"), std::string::npos);
  EXPECT_NE(r.metrics_json.find("recovery.mttr_seconds_total"),
            std::string::npos);
  EXPECT_NE(r.metrics_json.find("recovery.restored_particles"),
            std::string::npos);
  EXPECT_NE(r.metrics_json.find("fault.crashes"), std::string::npos);
  EXPECT_NE(r.metrics_json.find("mem.exchange_bytes"), std::string::npos);
}

TEST_F(CrashRecovery, CrashFreeMetricsOmitRecoverySeries) {
  // The recovery/crash series are folded into the metrics only when they
  // fired: a clean traced run's snapshot stays byte-compatible with the
  // pre-crash-support format.
  auto p = base_params();
  p.trace.enabled = true;
  const auto r = run_pic(p);
  EXPECT_EQ(r.metrics_json.find("recovery."), std::string::npos);
  EXPECT_EQ(r.metrics_json.find("fault.crashes"), std::string::npos);
}

TEST_F(CrashRecovery, ParseCrashScheduleSpec) {
  const auto s = parse_crash_schedule("2@0.5,5@1.25");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].rank, 2);
  EXPECT_EQ(s[0].vtime, 0.5);
  EXPECT_EQ(s[1].rank, 5);
  EXPECT_EQ(s[1].vtime, 1.25);
  EXPECT_TRUE(parse_crash_schedule("").empty());
  EXPECT_THROW(parse_crash_schedule("3"), std::invalid_argument);
  EXPECT_THROW(parse_crash_schedule("@1.0"), std::invalid_argument);
  EXPECT_THROW(parse_crash_schedule("2@"), std::invalid_argument);
  try {
    (void)parse_crash_schedule("x@1.0");
    ADD_FAILURE() << "x@1.0 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'x@1.0'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_crash_schedule("2@abc"), std::invalid_argument);
  EXPECT_THROW(parse_crash_schedule("2@nan"), std::invalid_argument);
  EXPECT_THROW(parse_crash_schedule("-1@0.5"), std::invalid_argument);
}

TEST_F(CrashRecovery, EnvOverridesFoldIntoConfig) {
  ::setenv("PICPAR_CRASH_RANKS", "1@0.125", 1);
  ::setenv("PICPAR_CRASH_PROB", "0.25", 1);
  ::setenv("PICPAR_CRASH_MAX_T", "2.5", 1);
  ::setenv("PICPAR_CRASH_LEASE", "0.01", 1);
  sim::FaultConfig cfg;
  apply_crash_env(cfg);
  ::unsetenv("PICPAR_CRASH_RANKS");
  ::unsetenv("PICPAR_CRASH_PROB");
  ::unsetenv("PICPAR_CRASH_MAX_T");
  ::unsetenv("PICPAR_CRASH_LEASE");

  ASSERT_EQ(cfg.crash_schedule.size(), 1u);
  EXPECT_EQ(cfg.crash_schedule[0].rank, 1);
  EXPECT_EQ(cfg.crash_schedule[0].vtime, 0.125);
  EXPECT_EQ(cfg.crash_prob, 0.25);
  EXPECT_EQ(cfg.crash_vtime_max, 2.5);
  EXPECT_EQ(cfg.crash_lease_seconds, 0.01);
  EXPECT_TRUE(cfg.any_crash_faults());

  // Unset variables leave the config untouched.
  sim::FaultConfig untouched;
  apply_crash_env(untouched);
  EXPECT_TRUE(untouched.crash_schedule.empty());
  EXPECT_EQ(untouched.crash_prob, 0.0);

  // A value must be a finite number as a whole: trailing characters,
  // non-numbers, overflow and NaN throw, naming the variable and its value.
  for (const char* var :
       {"PICPAR_CRASH_PROB", "PICPAR_CRASH_MAX_T", "PICPAR_CRASH_LEASE"}) {
    for (const char* bad : {"0.5x", "x", "1e999", "nan"}) {
      ::setenv(var, bad, 1);
      sim::FaultConfig c;
      try {
        apply_crash_env(c);
        ADD_FAILURE() << var << "=" << bad << " accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string(var) + "=\"" + bad + "\""),
                  std::string::npos)
            << what;
      }
      ::unsetenv(var);
    }
  }

  // A number outside the model's range parses, and run_pic rejects it
  // naming the field.
  ::setenv("PICPAR_CRASH_PROB", "2", 1);
  try {
    (void)run_pic(base_params());
    ADD_FAILURE() << "PICPAR_CRASH_PROB=2 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("crash_prob"), std::string::npos)
        << e.what();
  }
  ::unsetenv("PICPAR_CRASH_PROB");
}

}  // namespace
}  // namespace picpar::pic
