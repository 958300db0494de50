// End-to-end tracing through pic::run_pic: PicResult trace fields, the
// redistribution timeline, env-var enablement, the zero-cost-when-off
// contract, byte-identical exports across execution modes, and pinned
// hashes of every tracer and analyzer output.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pic/simulation.hpp"
#include "sim/faults.hpp"
#include "trace/tracer.hpp"

namespace picpar {
namespace {

namespace fs = std::filesystem;

pic::PicParams small_pic() {
  pic::PicParams p;
  p.grid = mesh::GridDesc{32, 16};
  p.nranks = 8;
  p.init.total = 512;
  p.iterations = 4;
  p.policy = "periodic:2";
  return p;
}

std::string slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(TracePic, DisabledRunHasNoTraceArtifacts) {
  const auto r = pic::run_pic(small_pic());
  EXPECT_FALSE(r.traced);
  EXPECT_EQ(r.trace_events, 0u);
  EXPECT_TRUE(r.metrics_json.empty());
  EXPECT_TRUE(r.timeline_csv.empty());
}

TEST(TracePic, TracingDoesNotPerturbVirtualResults) {
  auto p = small_pic();
  const auto off = pic::run_pic(p);
  p.trace.enabled = true;
  const auto on = pic::run_pic(p);

  EXPECT_TRUE(on.traced);
  EXPECT_GT(on.trace_events, 0u);
  EXPECT_EQ(on.total_seconds, off.total_seconds);
  EXPECT_EQ(on.compute_seconds, off.compute_seconds);
  EXPECT_EQ(on.redistributions, off.redistributions);
  ASSERT_EQ(on.iters.size(), off.iters.size());
  for (std::size_t i = 0; i < on.iters.size(); ++i) {
    EXPECT_EQ(on.iters[i].exec_seconds, off.iters[i].exec_seconds);
    EXPECT_EQ(on.iters[i].loop_seconds, off.iters[i].loop_seconds);
  }
}

TEST(TracePic, TimelineReproducesPerIterationRedistributionData) {
  auto p = small_pic();
  p.trace.enabled = true;
  const auto r = pic::run_pic(p);

  // Header + one row per iteration.
  std::istringstream lines(r.timeline_csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.rfind("iter,vtime,loop_seconds,redistributed", 0), 0u);
  int rows = 0, redists = 0;
  std::string line;
  while (std::getline(lines, line)) {
    // Columns: iter,vtime,loop_seconds,redistributed,...
    std::istringstream cols(line);
    std::string iter, vtime, loop, redist;
    std::getline(cols, iter, ',');
    std::getline(cols, vtime, ',');
    std::getline(cols, loop, ',');
    std::getline(cols, redist, ',');
    EXPECT_EQ(iter, std::to_string(rows));
    EXPECT_GT(std::stod(loop), 0.0);
    if (redist == "1") ++redists;
    // Per-rank particle counts (last nranks columns) sum to the total.
    std::vector<std::string> rest;
    std::string c;
    while (std::getline(cols, c, ',')) rest.push_back(c);
    ASSERT_GE(rest.size(), static_cast<std::size_t>(p.nranks));
    std::uint64_t total = 0;
    for (std::size_t k = rest.size() - static_cast<std::size_t>(p.nranks);
         k < rest.size(); ++k)
      total += std::stoull(rest[k]);
    EXPECT_EQ(total, 512u);
    ++rows;
  }
  EXPECT_EQ(rows, p.iterations);
  EXPECT_EQ(redists, r.redistributions);

  // The metrics snapshot agrees with the aggregate result.
  EXPECT_NE(r.metrics_json.find("\"pic.iterations\": 4"), std::string::npos);
  EXPECT_NE(r.metrics_json.find("\"pic.redistributions\": " +
                                std::to_string(r.redistributions)),
            std::string::npos);
}

// The tentpole determinism guarantee at the PIC level: every exported
// virtual-time artifact is byte-identical between sequential and parallel
// execution, including the Chrome-trace file itself.
TEST(TracePic, ExportsByteIdenticalAcrossExecModes) {
  const fs::path dir = fs::temp_directory_path();
  const fs::path seq_trace = dir / "picpar_seq.trace.json";
  const fs::path par_trace = dir / "picpar_par.trace.json";

  auto p = small_pic();
  p.policy = "sar";
  p.trace.enabled = true;
  p.trace.path = seq_trace.string();
  p.exec.workers = 4;

  p.exec.parallel = false;
  const auto seq = pic::run_pic(p);
  p.exec.parallel = true;
  p.trace.path = par_trace.string();
  const auto par = pic::run_pic(p);

  EXPECT_EQ(seq.metrics_json, par.metrics_json);
  EXPECT_EQ(seq.timeline_csv, par.timeline_csv);
  EXPECT_EQ(seq.trace_events, par.trace_events);

  const std::string a = slurp(seq_trace);
  const std::string b = slurp(par_trace);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  fs::remove(seq_trace);
  fs::remove(par_trace);
}

TEST(TracePic, EnvVariableEnablesTracing) {
  const fs::path dir = fs::temp_directory_path();
  const fs::path trace_path = dir / "picpar_env.trace.json";
  const fs::path metrics_path = dir / "picpar_env.metrics.json";

  ASSERT_EQ(setenv("PICPAR_TRACE", trace_path.string().c_str(), 1), 0);
  ASSERT_EQ(setenv("PICPAR_TRACE_METRICS", metrics_path.string().c_str(), 1),
            0);
  const auto r = pic::run_pic(small_pic());
  ASSERT_EQ(unsetenv("PICPAR_TRACE"), 0);
  ASSERT_EQ(unsetenv("PICPAR_TRACE_METRICS"), 0);

  EXPECT_TRUE(r.traced);
  EXPECT_TRUE(fs::exists(trace_path));
  EXPECT_TRUE(fs::exists(metrics_path));
  const std::string trace_json = slurp(trace_path);
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("pic.redist"), std::string::npos);
  EXPECT_EQ(slurp(metrics_path), r.metrics_json);
  fs::remove(trace_path);
  fs::remove(metrics_path);
}

TEST(TracePic, EnvValueZeroStaysDisabled) {
  ASSERT_EQ(setenv("PICPAR_TRACE", "0", 1), 0);
  const auto r = pic::run_pic(small_pic());
  ASSERT_EQ(unsetenv("PICPAR_TRACE"), 0);
  EXPECT_FALSE(r.traced);
  EXPECT_EQ(trace::trace_env_path(), nullptr);
}

TEST(TracePic, TracerCoexistsWithAnalyzer) {
  auto p = small_pic();
  p.trace.enabled = true;
  p.analyze.enabled = true;
  const auto r = pic::run_pic(p);
  EXPECT_TRUE(r.traced);
  EXPECT_GT(r.trace_events, 0u);
  EXPECT_EQ(r.analysis_findings, 0);
  EXPECT_NE(r.hb_fingerprint, 0u);
}

/// Clears, for one scope, the variables that would perturb a pinned run
/// (CI's chaos, analyzer and tracing jobs set them) and restores them
/// afterwards. The worker-count variables stay: the pins hold at every W.
class PinnedEnv {
public:
  PinnedEnv() {
    for (const char* k :
         {"PICPAR_CRASH_RANKS", "PICPAR_CRASH_PROB", "PICPAR_CRASH_MAX_T",
          "PICPAR_CRASH_LEASE", "PICPAR_ANALYZE", "PICPAR_TRACE",
          "PICPAR_TRACE_METRICS"}) {
      const char* v = std::getenv(k);
      saved_.emplace_back(k, v ? std::optional<std::string>(v)
                               : std::nullopt);
      ::unsetenv(k);
    }
  }
  ~PinnedEnv() {
    for (const auto& [k, v] : saved_) {
      if (v)
        ::setenv(k.c_str(), v->c_str(), 1);
      else
        ::unsetenv(k.c_str());
    }
  }
  PinnedEnv(const PinnedEnv&) = delete;
  PinnedEnv& operator=(const PinnedEnv&) = delete;

private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

std::uint64_t hash_text(const std::string& text) {
  return sim::fnv1a(reinterpret_cast<const std::byte*>(text.data()),
                    text.size());
}

/// `text` without the lines that contain `key`.
std::string without_lines(const std::string& text, const std::string& key) {
  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line))
    if (line.find(key) == std::string::npos) out += line + '\n';
  return out;
}

/// AnalysisPic's tiny_params() (tests/analysis/test_analysis_pic.cpp).
pic::PicParams analysis_tiny_params() {
  pic::PicParams p;
  p.grid = mesh::GridDesc(24, 12);
  p.nranks = 6;
  p.scenario = "irregular_beam";
  p.init.total = 1024;
  p.init.drift_ux = 0.1;
  p.iterations = 8;
  p.policy = "periodic:3";
  p.machine = sim::CostModel::cm5();
  return p;
}

/// CrashRecovery's base_params() (tests/pic/test_crash_recovery.cpp).
pic::PicParams crash_base_params() {
  pic::PicParams p;
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

std::string analysis_text(const pic::PicResult& r) {
  return std::to_string(r.analysis_findings) + '\n' + r.analysis_report +
         '\n' + std::to_string(r.hb_fingerprint) + '\n';
}

/// Every trace output of a run: the metrics (less the analyzer's own
/// footprint), the timeline, the event count and the Chrome trace's bytes.
std::string trace_text(const pic::PicResult& r, const fs::path& trace) {
  return without_lines(r.metrics_json, "mem.analyzer_bytes") +
         r.timeline_csv + std::to_string(r.trace_events) + '\n' +
         slurp(trace);
}

// Every observer output of five runs, hashed: the analyzer's findings,
// report and happens-before fingerprint, the determinism audit, and the
// tracer's metrics, timeline, event count and Chrome trace. The hashes do
// not depend on the worker count.
TEST(Observers, OutputsArePinned) {
  const PinnedEnv env;
  const fs::path trace = fs::temp_directory_path() / "picpar_pinned.trace.json";
  std::vector<std::pair<std::string, std::string>> texts;

  {
    auto p = analysis_tiny_params();
    p.analyze.enabled = true;
    texts.emplace_back("analysis", analysis_text(pic::run_pic(p)));
  }
  {
    auto p = analysis_tiny_params();
    p.analyze.audit_determinism = true;
    const auto r = pic::run_pic(p);
    texts.emplace_back("audit", std::to_string(r.determinism_audit) + '\n' +
                                    analysis_text(r));
  }
  {
    auto p = small_pic();
    p.policy = "sar";
    p.trace.path = trace.string();
    texts.emplace_back("trace", trace_text(pic::run_pic(p), trace));
  }
  {
    // AnalysisPic.SarPolicyWithFaultsIsCleanToo's faults.
    auto p = small_pic();
    p.trace.path = trace.string();
    p.analyze.enabled = true;
    p.faults.latency_jitter_prob = 0.05;
    p.faults.latency_jitter_max_seconds = 1e-4;
    p.faults.duplicate_prob = 0.02;
    const auto r = pic::run_pic(p);
    texts.emplace_back("trace+analysis", trace_text(r, trace) +
                                             analysis_text(r));
  }
  {
    auto p = crash_base_params();
    p.faults.crash_schedule = {{3, 0.3187}, {5, 0.5}};
    p.trace.path = trace.string();
    p.analyze.enabled = true;
    const auto r = pic::run_pic(p);
    ASSERT_EQ(r.crash_count, 2);
    texts.emplace_back("crash", trace_text(r, trace) + analysis_text(r));
  }
  fs::remove(trace);

  const std::vector<std::uint64_t> pinned = {
      0x8adcce2bfb4fe190ULL,  // analysis
      0x10a1fd6d475a5b29ULL,  // audit
      0xde54ec7e24ee0c67ULL,  // trace
      0xf7b410c528354fbcULL,  // trace+analysis
      0x9c74a290b690e303ULL,  // crash
  };
  ASSERT_EQ(texts.size(), pinned.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    char got[20];
    std::snprintf(got, sizeof got, "%016llx",
                  static_cast<unsigned long long>(hash_text(texts[i].second)));
    EXPECT_EQ(hash_text(texts[i].second), pinned[i])
        << texts[i].first << " hashes to 0x" << got;
  }
}

}  // namespace
}  // namespace picpar
