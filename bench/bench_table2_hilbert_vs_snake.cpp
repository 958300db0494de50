// Table 2: computational time (modeled seconds) of 200 iterations —
// Hilbert vs snakelike indexing, uniform and irregular distributions,
// meshes 256x128 and 512x256, P in {32, 64, 128}, dynamic (SAR)
// redistribution for both indexings.
//
// Expected shape: Hilbert <= snake in (nearly) all cases; times roughly
// halve as P doubles; paper anchors (CM-5, 32 procs): uniform 256x128/32Ki
// ~72 s, irregular ~75 s.
#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_table2_hilbert_vs_snake",
          "Table 2: Hilbert vs snakelike indexing, 200 iterations");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.full ? 200 : 50;

  bench::print_header("Table 2 — computational time of " +
                          std::to_string(iters) + " iterations",
                      "dynamic (SAR) redistribution; modeled CM-5 seconds");

  struct Config {
    std::uint32_t nx, ny;
    std::uint64_t n;
  };
  const Config configs[] = {
      {256, 128, 32768}, {256, 128, 65536}, {512, 256, 65536},
      {512, 256, 131072}};
  const int procs[] = {32, 64, 128};

  Table table({"scenario", "mesh", "particles", "indexing", "P=32 (s)",
               "P=64 (s)", "P=128 (s)"});
  table.set_title("Table 2: Hilbert vs snakelike, " + std::to_string(iters) +
                  " iterations");

  for (const char* scenario : {"uniform", "irregular_beam"}) {
    for (const auto& cfg : configs) {
      const auto n = scale.particles(cfg.n);
      for (const auto curve :
           {sfc::CurveKind::kHilbert, sfc::CurveKind::kSnake}) {
        auto& row = table.row()
                        .add(scenario)
                        .add(std::to_string(cfg.nx) + "x" + std::to_string(cfg.ny))
                        .add(static_cast<std::size_t>(n))
                        .add(sfc::curve_kind_name(curve));
        for (int p : procs) {
          auto params = bench::paper_params(scenario, cfg.nx, cfg.ny, n, p);
          params.iterations = iters;
          params.curve = curve;
          params.policy = "sar";
          const auto r = pic::run_pic(params);
          row.add(r.total_seconds, 2);
          std::cout << "." << std::flush;
        }
      }
      std::cout << '\n';
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper anchors (200 iters, CM-5): uniform 256x128/32768 = "
               "72.47 s @32; irregular 256x128/32768 = 74.88/39.61/20.92 s "
               "@32/64/128.\n"
               "Expected: hilbert <= snake almost everywhere; ~2x speedup "
               "per doubling of P.\n";
  return 0;
}
