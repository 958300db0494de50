// Shared scaffolding for the paper-reproduction benches.
//
// Every bench binary runs standalone and prints the rows/series of one
// table or figure. Defaults are scaled down so the whole suite finishes in
// minutes on a laptop; pass --full for the paper's exact parameters
// (2000-iteration runs, 128 simulated processors, 512x256 meshes).
#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "pic/config.hpp"
#include "pic/result.hpp"
#include "sweep/sweep.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace picpar::bench {

struct Scale {
  bool full = false;
  /// Multiply an iteration count by the scale factor (full: 1.0).
  int iters(int paper_iters) const {
    return full ? paper_iters : std::max(20, paper_iters / 5);
  }
  /// Divide a particle count for the reduced runs.
  std::uint64_t particles(std::uint64_t paper_count) const {
    return full ? paper_count : paper_count / 2;
  }
};

/// Parse the standard bench flags (--full, --seed); returns the scale.
/// Additional flags may be registered on `cli` before calling.
Scale parse_scale(picpar::Cli& cli, int argc, const char* const* argv);

/// The paper's experimental setup (Section 6): sweep::paper_base with the
/// workload filled in and the default SAR policy. `scenario` names the
/// workload (src/scenario): the paper's "uniform" or its
/// center-concentrated "irregular_beam" case.
pic::PicParams paper_params(const std::string& scenario, std::uint32_t nx,
                            std::uint32_t ny, std::uint64_t particles,
                            int nranks);

/// Print a standard bench header naming the experiment.
void print_header(const std::string& experiment, const std::string& note);

/// Run independent sweep configurations on up to `jobs` worker threads
/// (1 = serial, 0 = host hardware concurrency). Each task runs one
/// configuration on its own Machine and returns its formatted output; the
/// outputs are printed to stdout in submission order once all tasks have
/// finished, so concurrent runs produce byte-identical reports to serial
/// ones. Do not use around wall-clock measurements — co-scheduled
/// configurations contend for cores and distort timings. (A thin wrapper
/// over sweep::run_indexed.)
void run_jobs(int jobs, std::vector<std::function<std::string()>> tasks);

/// Standard sweep flags for benches that route their simulations through
/// the cached sweep driver (src/sweep): --jobs (worker threads for cache
/// misses) and --cache (result cache directory; defaults to the
/// PICPAR_SWEEP_CACHE environment variable, "" = uncached). Register on
/// `cli` before parse_scale.
struct SweepFlags {
  std::shared_ptr<int> jobs;
  std::shared_ptr<std::string> cache;
};
SweepFlags sweep_flags(picpar::Cli& cli);

/// Run labeled configurations through sweep::run_sweep with the parsed
/// flags. When a cache directory is active, prints the one-line cache
/// summary (prefixed "# ") — with no cache the bench's output is
/// byte-identical to running every configuration inline.
sweep::SweepReport run_sweep_jobs(const std::vector<sweep::Job>& jobs,
                                  const SweepFlags& flags);

/// Format seconds with 2-decimal fixed precision (paper table style).
std::string fmt_s(double seconds);

}  // namespace picpar::bench
