// Ablation: redistribution decision rules beyond the paper's Fig 20 —
// static, the periodic family, the paper's SAR rule (Eq. 1), and a simple
// relative-rise threshold rule. Evaluated on three workload intensities
// (how fast the particle population drifts) to test robustness: a tuned
// period that wins on one drift speed loses on another, while SAR adapts.
#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_ablation_policies",
          "Decision-rule robustness across drift speeds");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.full ? 400 : 150;
  const std::uint64_t n = scale.particles(32768);

  bench::print_header("Ablation — redistribution decision rules",
                      std::to_string(iters) +
                          " iterations, irregular blob, three drift speeds");

  const double drifts[] = {0.04, 0.12, 0.3};
  const std::vector<std::string> policies = {
      "static",      "periodic:50", "periodic:10", "sar", "threshold:1.05"};

  Table table({"policy", "slow drift (s)", "medium drift (s)",
               "fast drift (s)", "redists (s/m/f)"});
  table.set_title("Total time by decision rule and drift speed");

  for (const auto& policy : policies) {
    auto& row = table.row().add(policy);
    std::string redists;
    for (const double drift : drifts) {
      auto params = bench::paper_params("irregular_beam", 128, 64, n, *ranks);
      params.iterations = iters;
      params.policy = policy;
      params.init.drift_ux = drift;
      params.init.drift_uy = drift * 0.6;
      const auto r = pic::run_pic(params);
      row.add(r.total_seconds, 2);
      redists += (redists.empty() ? "" : "/") + std::to_string(r.redistributions);
      std::cout << "." << std::flush;
    }
    row.add(redists);
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nExpected: no single period wins at every drift speed; sar "
               "tracks the best rule everywhere without tuning.\n";
  return 0;
}
