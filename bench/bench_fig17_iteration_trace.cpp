// Figure 17: execution time for each iteration (irregular distribution,
// mesh = 128x64, particles = 32768, processors = 32), comparing static and
// periodic policies.
//
// Expected shape: the static curve ramps upward as particle subdomains
// drift; periodic curves are saw-teeth that reset at each redistribution.
#include <sstream>

#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_fig17_iteration_trace",
          "Figure 17: per-iteration execution time trace");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  auto stride = cli.flag<int>("stride", 10, "print every k-th iteration");
  auto jobs = cli.flag<int>("jobs", 1,
                            "policy configurations run concurrently "
                            "(0 = host cores)");
  auto trace_path = cli.flag<std::string>(
      "trace", "", "write a Chrome-trace JSON of the sar run to this path");
  auto metrics_path = cli.flag<std::string>(
      "trace-metrics", "",
      "write the sar run's metrics JSON to this path");
  auto phase_wall = cli.flag<bool>(
      "phase-wall", false,
      "trace the sar run and print wall-clock seconds per phase");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.iters(2000);

  bench::print_header("Figure 17 — per-iteration execution time",
                      "irregular, mesh=128x64, particles=32768, p=" +
                          std::to_string(*ranks));

  const std::uint64_t n = scale.particles(32768);
  std::vector<std::function<std::string()>> tasks;
  for (const std::string& policy :
       {std::string("static"),
        "periodic:" + std::to_string(scale.full ? 50 : 10), std::string("sar")}) {
    tasks.push_back([policy, n, iters, ranks = *ranks, stride = *stride,
                     trace = *trace_path, metrics = *metrics_path,
                     wall = *phase_wall] {
      auto params = bench::paper_params("irregular_beam", 128, 64, n, ranks);
      params.iterations = iters;
      params.policy = policy;
      if (policy == "sar") {
        // The sar run is the paper's headline configuration; it is the one
        // exported when tracing is requested.
        params.trace.path = trace;
        params.trace.metrics_path = metrics;
        if (wall) params.trace.enabled = true;
      }
      const auto r = pic::run_pic(params);

      std::vector<double> x, y;
      for (int i = 0; i < iters; i += stride) {
        x.push_back(i);
        y.push_back(r.iters[static_cast<std::size_t>(i)].exec_seconds);
      }
      std::ostringstream os;
      print_series(os, "exec_time[" + policy + "]", x, y);
      os << "# total=" << bench::fmt_s(r.total_seconds)
         << " s, redistributions=" << r.redistributions << "\n";
      if (wall && !r.phase_wall_us.empty()) {
        // Host wall seconds per simulated phase, summed over ranks — the
        // hot-path numbers DESIGN.md §10's before/after table reports.
        os << "# phase-wall[" << policy << "]:";
        for (int ph = 0; ph < sim::kNumPhases; ++ph)
          os << ' ' << sim::phase_name(static_cast<sim::Phase>(ph)) << '='
             << bench::fmt_s(r.phase_wall_us[static_cast<std::size_t>(ph)] /
                             1e6)
             << "s";
        os << "\n";
      }
      os << "\n";
      return os.str();
    });
  }
  bench::run_jobs(*jobs, std::move(tasks));
  std::cout << "Expected: static ramps up; periodic/sar saw-tooth and stay "
               "low.\n";
  return 0;
}
