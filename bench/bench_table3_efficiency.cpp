// Table 3: efficiency of the Hilbert indexing scheme.
//
//   efficiency(P) = T_serial / (P * T_P)
//
// where T_serial is the modeled one-processor time (no communication).
// Expected shape: good efficiencies through P=128; near-constant
// efficiency when particles-per-processor is held fixed (32Ki@32 vs
// 64Ki@64 on 256x128, etc.).
#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

namespace {

/// Modeled serial time: the same computation charged on one rank with no
/// communication (pure compute; redistribution unnecessary).
double serial_time(pic::PicParams params) {
  params.nranks = 1;
  params.policy = "static";
  const auto r = pic::run_pic(params);
  return r.compute_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_table3_efficiency",
          "Table 3: efficiency of the Hilbert indexing scheme");
  // Beyond the paper's P=128: the simulated machine now scales to
  // 1024-4096 ranks (sparse per-peer state; see DESIGN.md section 15), so
  // the efficiency curve can be extended past the CM-5's partition sizes.
  // Iterations are cut because wall time grows with P even at fixed work.
  auto large = cli.flag<bool>(
      "large", false, "extend the machine to P=1024/2048/4096");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = *large ? (scale.full ? 20 : 4) : (scale.full ? 200 : 50);

  bench::print_header("Table 3 — efficiency of Hilbert indexing",
                      "eff = T_serial / (P * T_P); SAR redistribution");

  struct Config {
    std::uint32_t nx, ny;
    std::uint64_t n;
  };
  const Config configs[] = {
      {256, 128, 32768}, {256, 128, 65536}, {512, 256, 65536},
      {512, 256, 131072}};
  const std::vector<int> procs = *large ? std::vector<int>{1024, 2048, 4096}
                                        : std::vector<int>{32, 64, 128};

  std::vector<std::string> headers = {"scenario", "mesh", "particles"};
  for (const int p : procs) headers.push_back("P=" + std::to_string(p));
  Table table(headers);
  table.set_title("Table 3: efficiency, " + std::to_string(iters) +
                  " iterations");

  for (const char* scenario : {"uniform", "irregular_beam"}) {
    for (const auto& cfg : configs) {
      const auto n = scale.particles(cfg.n);
      auto base = bench::paper_params(scenario, cfg.nx, cfg.ny, n, 1);
      base.iterations = iters;
      const double t1 = serial_time(base);

      auto& row = table.row()
                      .add(scenario)
                      .add(std::to_string(cfg.nx) + "x" + std::to_string(cfg.ny))
                      .add(static_cast<std::size_t>(n));
      for (int p : procs) {
        auto params = base;
        params.nranks = p;
        params.policy = "sar";
        const auto r = pic::run_pic(params);
        row.add(t1 / (static_cast<double>(p) * r.total_seconds), 3);
        std::cout << "." << std::flush;
      }
      std::cout << '\n';
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected: efficiencies stay high to P=128 and are similar "
               "when particles-per-processor matches (e.g. 32Ki@32 vs "
               "64Ki@64 on 256x128).\n";
  return 0;
}
