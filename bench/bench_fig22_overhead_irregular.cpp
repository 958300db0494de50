// Figure 22: overhead (execution time - computation time) of 200
// iterations for the IRREGULAR (center-concentrated) distribution,
// Hilbert vs snakelike indexing, P in {32, 64, 128}.
//
// Expected shape: same as Fig 21 but with larger absolute overheads; the
// Hilbert advantage is more pronounced because compact subdomains matter
// more when particles cluster.
#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_fig22_overhead_irregular",
          "Figure 22: overhead for the irregular distribution");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.full ? 200 : 50;

  bench::print_header("Figure 22 — overhead, irregular distribution",
                      "overhead = execution - computation (modeled s)");

  struct Config {
    std::uint32_t nx, ny;
    std::uint64_t n;
  };
  const Config configs[] = {
      {256, 128, 32768}, {256, 128, 65536}, {512, 256, 65536},
      {512, 256, 131072}};

  Table table({"mesh", "particles", "indexing", "P", "overhead (s)",
               "redist share"});
  table.set_title("Fig 22: overhead of " + std::to_string(iters) +
                  " iterations, irregular");

  for (const auto& cfg : configs) {
    const auto n = scale.particles(cfg.n);
    for (const auto curve : {sfc::CurveKind::kHilbert, sfc::CurveKind::kSnake}) {
      for (int p : {32, 64, 128}) {
        auto params =
            bench::paper_params("irregular_beam", cfg.nx, cfg.ny, n, p);
        params.iterations = iters;
        params.curve = curve;
        const auto r = pic::run_pic(params);
        const double share =
            r.overhead_seconds() > 0.0
                ? r.redist_seconds_total / r.overhead_seconds()
                : 0.0;
        table.row()
            .add(std::to_string(cfg.nx) + "x" + std::to_string(cfg.ny))
            .add(static_cast<std::size_t>(n))
            .add(sfc::curve_kind_name(curve))
            .add(static_cast<long long>(p))
            .add(r.overhead_seconds(), 2)
            .add(share, 3);
        std::cout << "." << std::flush;
      }
    }
    std::cout << '\n';
  }
  table.print(std::cout);
  std::cout << "\nExpected: hilbert overhead <= snake (except possibly the "
               "smallest particles-per-processor corner); redistribution "
               "share < 0.2 at P=128.\n";
  return 0;
}
