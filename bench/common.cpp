#include "common.hpp"

#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "sweep/grid.hpp"
#include "sweep/pool.hpp"

namespace picpar::bench {

Scale parse_scale(picpar::Cli& cli, int argc, const char* const* argv) {
  auto full = cli.flag<bool>("full", false,
                             "run the paper's exact scale (slower)");
  cli.parse(argc, argv);
  Scale s;
  s.full = *full;
  return s;
}

pic::PicParams paper_params(const std::string& scenario, std::uint32_t nx,
                            std::uint32_t ny, std::uint64_t particles,
                            int nranks) {
  pic::PicParams p = sweep::paper_base(nx, ny);
  p.nranks = nranks;
  p.scenario = scenario;
  p.init.total = particles;
  return p;
}

void print_header(const std::string& experiment, const std::string& note) {
  std::cout << "#\n# " << experiment << "\n# " << note << "\n#\n";
}

void run_jobs(int jobs, std::vector<std::function<std::string()>> tasks) {
  std::vector<std::string> out(tasks.size());
  sweep::run_indexed(jobs, tasks.size(),
                     [&](std::size_t i) { out[i] = tasks[i](); });
  for (const auto& s : out) std::cout << s;
}

SweepFlags sweep_flags(picpar::Cli& cli) {
  const char* env = std::getenv("PICPAR_SWEEP_CACHE");
  SweepFlags f;
  f.jobs = cli.flag<int>("jobs", 1,
                         "sweep worker threads for cache misses (0 = cores)");
  f.cache = cli.flag<std::string>(
      "cache", env ? env : "",
      "result cache directory (default $PICPAR_SWEEP_CACHE; \"\" = off)");
  return f;
}

sweep::SweepReport run_sweep_jobs(const std::vector<sweep::Job>& jobs,
                                  const SweepFlags& flags) {
  sweep::SweepOptions opt;
  opt.jobs = *flags.jobs;
  opt.cache_dir = *flags.cache;
  auto report = sweep::run_sweep(jobs, opt);
  if (!opt.cache_dir.empty()) {
    const auto& s = report.stats;
    std::cout << "# sweep: " << s.jobs << " jobs, " << s.unique
              << " unique, " << s.hits << " cache hits, " << s.simulated
              << " simulated\n";
  }
  return report;
}

std::string fmt_s(double seconds) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << seconds;
  return os.str();
}

}  // namespace picpar::bench
