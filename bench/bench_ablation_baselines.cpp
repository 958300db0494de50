// Ablation: the paper's Section 3 narrative, measured — replicated-grid
// Lagrangian (Lubeck & Faber) degrades with machine size because of global
// operations over the full mesh; grid-partitioned Eulerian suffers load
// imbalance on irregular inputs; independent partitioning with dynamic
// alignment scales. Also ablates the grid decomposition (block vs curve)
// and the dedup policy (hash vs direct), and shows how the trade-off moves
// on a modern-cluster cost model.
#include "common.hpp"

#include "pic/eulerian.hpp"
#include "pic/replicated.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_ablation_baselines",
          "Baselines and design-choice ablations");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.full ? 100 : 25;
  const std::uint64_t n = scale.particles(32768);

  bench::print_header("Ablation — baselines and design choices",
                      "irregular, mesh=128x64, " + std::to_string(iters) +
                          " iterations");

  Table table({"variant", "P", "total (s)", "compute (s)", "overhead (s)"});
  table.set_title("Baselines across machine sizes");
  for (int p : {8, 32, 128}) {
    auto params = bench::paper_params("irregular_beam", 128, 64, n, p);
    params.iterations = iters;

    params.policy = "sar";
    const auto indep = pic::run_pic(params);
    table.row().add("independent+sar").add(static_cast<long long>(p))
        .add(indep.total_seconds, 2).add(indep.compute_seconds, 2)
        .add(indep.overhead_seconds(), 2);

    const auto repl = pic::run_replicated(params);
    table.row().add("replicated grid").add(static_cast<long long>(p))
        .add(repl.total_seconds, 2).add(repl.compute_seconds, 2)
        .add(repl.overhead_seconds(), 2);

    const auto eul = pic::run_eulerian(params);
    table.row().add("eulerian grid-part").add(static_cast<long long>(p))
        .add(eul.total_seconds, 2).add(eul.compute_seconds, 2)
        .add(eul.overhead_seconds(), 2);
    std::cout << "." << std::flush;
  }
  std::cout << '\n';
  table.print(std::cout);

  Table abl({"ablation", "setting", "total (s)", "overhead (s)"});
  abl.set_title("Design-choice ablations (P=32)");
  {
    auto params = bench::paper_params("irregular_beam", 128, 64, n, 32);
    params.iterations = iters;
    for (const auto gd : {pic::GridDecomp::kCurve, pic::GridDecomp::kBlock}) {
      params.grid_decomp = gd;
      const auto r = pic::run_pic(params);
      abl.row().add("grid decomposition")
          .add(gd == pic::GridDecomp::kCurve ? "curve (aligned)" : "block")
          .add(r.total_seconds, 2).add(r.overhead_seconds(), 2);
      std::cout << "." << std::flush;
    }
    params.grid_decomp = pic::GridDecomp::kCurve;
    for (const auto dp : {core::DedupPolicy::kDirect, core::DedupPolicy::kHash}) {
      params.dedup = dp;
      const auto r = pic::run_pic(params);
      abl.row().add("dedup table").add(core::dedup_policy_name(dp))
          .add(r.total_seconds, 2).add(r.overhead_seconds(), 2);
      std::cout << "." << std::flush;
    }
    params.dedup = core::DedupPolicy::kDirect;
    for (const auto curve :
         {sfc::CurveKind::kHilbert, sfc::CurveKind::kMorton,
          sfc::CurveKind::kSnake, sfc::CurveKind::kRowMajor}) {
      params.curve = curve;
      const auto r = pic::run_pic(params);
      abl.row().add("indexing curve").add(sfc::curve_kind_name(curve))
          .add(r.total_seconds, 2).add(r.overhead_seconds(), 2);
      std::cout << "." << std::flush;
    }
    params.curve = sfc::CurveKind::kHilbert;
    params.machine = sim::CostModel::modern_cluster();
    const auto modern = pic::run_pic(params);
    abl.row().add("cost model").add("modern cluster")
        .add(modern.total_seconds, 4).add(modern.overhead_seconds(), 4);
  }
  std::cout << '\n';
  abl.print(std::cout);
  std::cout << "\nExpected: replicated overhead grows with P; eulerian "
               "compute dominated by the most loaded rank; hilbert best "
               "among curves; modern cluster shifts cost toward latency.\n";
  return 0;
}
