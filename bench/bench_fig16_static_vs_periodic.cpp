// Figure 16: total execution time for 2000 iterations on 32 nodes —
// static (never redistribute) vs periodic redistribution with periods
// 200, 100, 50, 25, 10, 5, for three (mesh, particles) pairs with the
// irregular (center-concentrated) distribution.
//
// Expected shape: every periodic variant beats static; the best period is
// in the middle of the range (too rare = drift accumulates, too frequent =
// redistribution cost dominates).
#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_fig16_static_vs_periodic",
          "Figure 16: static vs periodic redistribution, 32 nodes");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  const auto sf = bench::sweep_flags(cli);
  const auto scale = bench::parse_scale(cli, argc, argv);
  // This is the heaviest sweep (21 full simulations); the reduced scale
  // cuts deeper than the default 1/5 so the whole suite stays fast.
  const int iters = scale.full ? 2000 : 250;

  bench::print_header(
      "Figure 16 — total execution time, " + std::to_string(iters) +
          " iterations, " + std::to_string(*ranks) + " nodes",
      "irregular distribution; modeled CM-5 seconds");

  struct Pair {
    std::uint32_t nx, ny;
    std::uint64_t n;
  };
  const Pair pairs[] = {{128, 64, 32768}, {256, 128, 65536}, {256, 128, 131072}};
  const int periods[] = {200, 100, 50, 25, 10, 5};

  Table table({"mesh", "particles", "policy", "total time (s)",
               "redistributions", "overhead (s)"});
  table.set_title("Fig 16: static vs periodic redistribution");

  // Expand the (pair x policy) grid into sweep jobs, remembering the group
  // boundaries so the progress dots keep their one-line-per-pair shape.
  struct Row {
    std::string mesh;
    std::uint64_t n;
    std::string policy;
  };
  std::vector<Row> rows;
  std::vector<sweep::Job> jobs;
  std::vector<std::size_t> group_sizes;
  for (const auto& pr : pairs) {
    const auto n = scale.particles(pr.n);
    std::vector<std::string> policies{"static"};
    int last_kk = 0;
    for (int k : periods) {
      const int kk = scale.full ? k : std::max(2, k / 8);
      if (kk == last_kk) continue;  // reduced scale can collapse periods
      last_kk = kk;
      policies.push_back("periodic:" + std::to_string(kk));
    }
    group_sizes.push_back(policies.size());
    for (const auto& policy : policies) {
      auto params =
          bench::paper_params("irregular_beam", pr.nx, pr.ny, n, *ranks);
      params.iterations = iters;
      params.policy = policy;
      const std::string mesh_label =
          std::to_string(pr.nx) + "x" + std::to_string(pr.ny);
      rows.push_back({mesh_label, n, policy});
      jobs.push_back({mesh_label + "/p" + std::to_string(n) + "/" + policy,
                      params});
    }
  }

  const auto report = bench::run_sweep_jobs(jobs, sf);

  std::size_t idx = 0;
  for (const std::size_t gsz : group_sizes) {
    for (std::size_t g = 0; g < gsz; ++g, ++idx) {
      const auto& r = report.outcomes[idx].result;
      table.row()
          .add(rows[idx].mesh)
          .add(static_cast<std::size_t>(rows[idx].n))
          .add(rows[idx].policy)
          .add(r.total_seconds, 2)
          .add(static_cast<long long>(r.redistributions))
          .add(r.overhead_seconds(), 2);
      std::cout << "." << std::flush;
    }
    std::cout << '\n';
  }
  table.print(std::cout);
  std::cout << "\nExpected: periodic < static for every pair; best period "
               "mid-range.\n";
  return 0;
}
