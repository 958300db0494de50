// End-to-end tracing through pic::run_pic: PicResult trace fields, the
// redistribution timeline, env-var enablement, the zero-cost-when-off
// contract, and byte-identical exports across execution modes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "pic/simulation.hpp"
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

}  // namespace
}  // namespace picpar
