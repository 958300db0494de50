// Figure 20: periodic vs dynamic (SAR) redistribution over 200 iterations
// on 32 nodes. The dynamic policy uses only runtime information — cost of
// the last redistribution and the rise in iteration time — yet should land
// close to the best periodic setting without any tuning.
#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_fig20_periodic_vs_dynamic",
          "Figure 20: periodic vs dynamic (SAR) redistribution");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = 200;  // the paper's Fig 20 run is short; keep it exact

  bench::print_header("Figure 20 — periodic vs dynamic, " +
                          std::to_string(iters) + " iterations",
                      "irregular, mesh=128x64, particles=32768, p=" +
                          std::to_string(*ranks));

  const std::uint64_t n = scale.particles(32768);
  Table table({"policy", "total (s)", "exec (s)", "redist (s)",
               "redistributions"});
  table.set_title("Fig 20: 200-iteration totals");

  std::vector<std::string> policies{"static"};
  for (int k : {100, 50, 25, 10, 5})
    policies.push_back("periodic:" + std::to_string(k));
  policies.push_back("sar");

  double best_periodic = 1e300;
  double sar_total = 0.0;
  for (const auto& policy : policies) {
    auto params = bench::paper_params("irregular_beam", 128, 64, n, *ranks);
    params.iterations = iters;
    params.policy = policy;
    const auto r = pic::run_pic(params);
    table.row()
        .add(policy)
        .add(r.total_seconds, 2)
        .add(r.total_seconds - r.redist_seconds_total, 2)
        .add(r.redist_seconds_total, 2)
        .add(static_cast<long long>(r.redistributions));
    if (policy.rfind("periodic", 0) == 0)
      best_periodic = std::min(best_periodic, r.total_seconds);
    if (policy == "sar") sar_total = r.total_seconds;
    std::cout << "." << std::flush;
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nDynamic (sar) vs best periodic: " << bench::fmt_s(sar_total)
            << " vs " << bench::fmt_s(best_periodic) << " s ("
            << bench::fmt_s(100.0 * (sar_total - best_periodic) /
                            best_periodic)
            << "% difference)\n"
            << "Expected: sar within a few percent of the best period, "
               "with no tuning.\n";
  return 0;
}
