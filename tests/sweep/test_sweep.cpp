// The sweep driver end to end: fingerprint dedup, cold/warm cache
// behavior (warm rerun performs zero simulations, byte-identical merged
// output), worker-count independence, corrupt-entry recompute, and the
// merge/provenance artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pic/simulation.hpp"
#include "sweep/cache.hpp"
#include "sweep/sweep.hpp"

namespace picpar::sweep {
namespace {

namespace fs = std::filesystem;

/// Sweep results must be predictable here (exact particle counts, no
/// crashes), so scrub the chaos-job environment overrides — they fold
/// into fingerprints and run behavior by design.
class SweepTest : public ::testing::Test {
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
    dir_ = (fs::path(::testing::TempDir()) /
            ("picpar_sweep_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    for (const auto& [k, v] : saved_) {
      if (v)
        ::setenv(k.c_str(), v->c_str(), 1);
      else
        ::unsetenv(k.c_str());
    }
  }

  std::string dir_;

private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

pic::PicParams tiny_params(std::uint64_t seed) {
  pic::PicParams p;
  p.grid = mesh::GridDesc(16, 8);
  p.nranks = 4;
  p.init.total = 400;
  p.init.seed = seed;
  p.iterations = 5;
  p.policy = "periodic:2";
  return p;
}

std::vector<Job> tiny_jobs() {
  return {{"seed1", tiny_params(1)},
          {"seed2", tiny_params(2)},
          {"seed1-again", tiny_params(1)}};
}

TEST_F(SweepTest, DeduplicatesByFingerprint) {
  SweepOptions opt;  // uncached, serial
  const auto report = run_sweep(tiny_jobs(), opt);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_EQ(report.stats.jobs, 3u);
  EXPECT_EQ(report.stats.unique, 2u);
  EXPECT_EQ(report.stats.simulated, 2u);
  EXPECT_EQ(report.stats.hits, 0u);

  EXPECT_EQ(report.outcomes[0].source, Source::kSimulated);
  EXPECT_EQ(report.outcomes[1].source, Source::kSimulated);
  EXPECT_EQ(report.outcomes[2].source, Source::kDedup);
  EXPECT_EQ(report.outcomes[2].fingerprint, report.outcomes[0].fingerprint);
  EXPECT_EQ(report.outcomes[2].result.total_seconds,
            report.outcomes[0].result.total_seconds);
  EXPECT_NE(report.outcomes[1].fingerprint, report.outcomes[0].fingerprint);
  // Real simulations happened.
  EXPECT_GT(report.outcomes[0].result.total_seconds, 0.0);
  EXPECT_EQ(report.outcomes[0].result.final_particles, 400u);
}

TEST_F(SweepTest, WarmCacheRerunPerformsZeroSimulations) {
  SweepOptions opt;
  opt.cache_dir = dir_;
  const auto cold = run_sweep(tiny_jobs(), opt);
  EXPECT_EQ(cold.stats.simulated, 2u);
  EXPECT_EQ(cold.stats.hits, 0u);

  const auto warm = run_sweep(tiny_jobs(), opt);
  EXPECT_EQ(warm.stats.simulated, 0u);
  EXPECT_EQ(warm.stats.hits, 2u);
  EXPECT_EQ(warm.outcomes[0].source, Source::kCache);
  EXPECT_EQ(warm.outcomes[2].source, Source::kDedup);

  // The comparison artifacts are byte-identical cold vs warm; only the
  // provenance CSV differs.
  EXPECT_EQ(comparison_csv(warm), comparison_csv(cold));
  EXPECT_EQ(comparison_json(warm), comparison_json(cold));
  EXPECT_EQ(comparison_table(warm), comparison_table(cold));
  EXPECT_NE(provenance_csv(warm), provenance_csv(cold));
}

TEST_F(SweepTest, WorkerCountNeverChangesTheMergedOutput) {
  std::vector<Job> jobs;
  for (std::uint64_t s = 1; s <= 5; ++s)
    jobs.push_back({"seed" + std::to_string(s), tiny_params(s)});

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions wide;
  wide.jobs = 4;
  const auto a = run_sweep(jobs, serial);
  const auto b = run_sweep(jobs, wide);
  EXPECT_EQ(comparison_csv(a), comparison_csv(b));
  EXPECT_EQ(comparison_json(a), comparison_json(b));
  EXPECT_EQ(provenance_csv(a), provenance_csv(b));
}

TEST_F(SweepTest, CorruptEntryIsRecomputedAndRewritten) {
  SweepOptions opt;
  opt.cache_dir = dir_;
  const auto cold = run_sweep(tiny_jobs(), opt);

  // Tear one entry behind the cache's back.
  const std::string victim =
      (fs::path(dir_) / (cold.outcomes[0].fingerprint + ".entry")).string();
  {
    std::ofstream f(victim, std::ios::binary | std::ios::trunc);
    f << "picpar-cache v1\ngarbage";
  }

  const auto again = run_sweep(tiny_jobs(), opt);
  EXPECT_EQ(again.stats.corrupt, 1u);
  EXPECT_EQ(again.stats.simulated, 1u);
  EXPECT_EQ(again.stats.hits, 1u);
  EXPECT_TRUE(again.outcomes[0].corrupt_replaced);
  EXPECT_EQ(comparison_csv(again), comparison_csv(cold));

  // The recompute re-sealed the entry: third pass is all hits.
  const auto warm = run_sweep(tiny_jobs(), opt);
  EXPECT_EQ(warm.stats.simulated, 0u);
  EXPECT_EQ(warm.stats.corrupt, 0u);
}

TEST_F(SweepTest, CachedResultRoundTripsFullFidelity) {
  SweepOptions opt;
  opt.cache_dir = dir_;
  auto p = tiny_params(1);
  p.trace.enabled = true;
  p.sample_energy_every = 2;
  const auto cold = run_sweep({{"traced", p}}, opt);
  const auto warm = run_sweep({{"traced", p}}, opt);
  ASSERT_EQ(warm.stats.hits, 1u);

  const auto& a = cold.outcomes[0].result;
  const auto& b = warm.outcomes[0].result;
  // Wall times belong to the run that measured them: the simulated result
  // has them, the cached one does not.
  EXPECT_EQ(a.phase_wall_us.size(), static_cast<std::size_t>(sim::kNumPhases));
  EXPECT_TRUE(b.phase_wall_us.empty());
  EXPECT_EQ(b.total_seconds, a.total_seconds);
  EXPECT_EQ(b.metrics_json, a.metrics_json);
  EXPECT_EQ(b.timeline_csv, a.timeline_csv);
  EXPECT_EQ(b.energy_history.size(), a.energy_history.size());
  ASSERT_EQ(b.machine.ranks.size(), a.machine.ranks.size());
  for (std::size_t i = 0; i < a.machine.ranks.size(); ++i)
    EXPECT_EQ(b.machine.ranks[i].clock, a.machine.ranks[i].clock);
}

TEST_F(SweepTest, MaxEntriesTrimsAfterTheSweep) {
  SweepOptions opt;
  opt.cache_dir = dir_;
  opt.max_entries = 2;
  std::vector<Job> jobs;
  for (std::uint64_t s = 1; s <= 4; ++s)
    jobs.push_back({"seed" + std::to_string(s), tiny_params(s)});
  const auto report = run_sweep(jobs, opt);
  EXPECT_EQ(report.stats.evicted, 2u);
  ResultCache cache(dir_);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST_F(SweepTest, ArtifactShapes) {
  SweepOptions opt;
  const auto report = run_sweep({{"only", tiny_params(1)}}, opt);

  const std::string csv = comparison_csv(report);
  EXPECT_EQ(csv.substr(0, 18), "label,fingerprint,");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);  // header + row
  EXPECT_NE(csv.find("\nonly,"), std::string::npos);

  const std::string prov = provenance_csv(report);
  EXPECT_EQ(prov, "label,fingerprint,source,corrupt_replaced\nonly," +
                      report.outcomes[0].fingerprint + ",simulated,0\n");

  const std::string json = comparison_json(report);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"label\": \"only\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST_F(SweepTest, TracedSweepWritesOneMetricsFilePerJob) {
  // PICPAR_TRACE_METRICS names one sink; every unique job writes its own
  // file beside it, named by fingerprint, from a run and from the cache.
  fs::create_directories(dir_);
  const fs::path sink = fs::path(dir_) / "sweep.metrics.json";
  ASSERT_EQ(::setenv("PICPAR_TRACE_METRICS", sink.c_str(), 1), 0);
  const std::vector<Job> jobs = {{"seed1", tiny_params(1)},
                                 {"seed2", tiny_params(2)}};
  SweepOptions opt;
  opt.cache_dir = (fs::path(dir_) / "cache").string();
  const auto read = [](const fs::path& f) {
    std::ifstream in(f, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  const auto cold = run_sweep(jobs, opt);
  ASSERT_EQ(cold.stats.simulated, 2u);
  std::vector<fs::path> files;
  std::vector<std::string> bytes;
  for (const auto& o : cold.outcomes) {
    files.push_back(fs::path(dir_) /
                    ("sweep.metrics." + o.fingerprint + ".json"));
    ASSERT_TRUE(fs::exists(files.back())) << files.back();
    bytes.push_back(read(files.back()));
    EXPECT_FALSE(bytes.back().empty());
    EXPECT_EQ(bytes.back(), o.result.metrics_json);
    fs::remove(files.back());
  }
  EXPECT_NE(files[0], files[1]);
  EXPECT_FALSE(fs::exists(sink));

  const auto warm = run_sweep(jobs, opt);
  ASSERT_EQ(warm.stats.hits, 2u);
  for (std::size_t i = 0; i < files.size(); ++i) {
    ASSERT_TRUE(fs::exists(files[i])) << files[i];
    EXPECT_EQ(read(files[i]), bytes[i]);
  }
  EXPECT_FALSE(fs::exists(sink));
}

TEST_F(SweepTest, TracedSweepWritesOneChromeTracePerSimulatedJob) {
  // PICPAR_TRACE names one sink; concurrent simulated jobs each write
  // their own Chrome trace beside it, named by fingerprint, with the bytes
  // a solo run of the job writes.
  fs::create_directories(dir_);
  const fs::path sink = fs::path(dir_) / "sweep.trace.json";
  ASSERT_EQ(::setenv("PICPAR_TRACE", sink.c_str(), 1), 0);
  const std::vector<Job> jobs = {{"seed1", tiny_params(1)},
                                 {"seed2", tiny_params(2)}};
  SweepOptions opt;
  opt.jobs = 2;
  const auto read = [](const fs::path& f) {
    std::ifstream in(f, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  const auto cold = run_sweep(jobs, opt);
  ASSERT_EQ(cold.stats.simulated, 2u);
  EXPECT_FALSE(fs::exists(sink));
  const fs::path solo = fs::path(dir_) / "solo.trace.json";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const fs::path file = fs::path(dir_) / ("sweep.trace." +
                                            cold.outcomes[i].fingerprint +
                                            ".json");
    ASSERT_TRUE(fs::exists(file)) << file;
    auto params = jobs[i].params;
    params.trace.path = solo.string();
    (void)pic::run_pic(params);
    const std::string bytes = read(file);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, read(solo)) << jobs[i].label;
  }
}

TEST_F(SweepTest, EmptyJobListIsANoop) {
  SweepOptions opt;
  opt.cache_dir = dir_;
  const auto report = run_sweep({}, opt);
  EXPECT_TRUE(report.outcomes.empty());
  EXPECT_EQ(report.stats.jobs, 0u);
  EXPECT_EQ(comparison_csv(report),
            comparison_csv(report));  // artifacts still render
}

}  // namespace
}  // namespace picpar::sweep
