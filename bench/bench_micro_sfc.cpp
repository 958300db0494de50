// Micro-benchmarks: raw index-computation throughput of the space-filling
// curves (google-benchmark). Particle indexing runs once per particle per
// push, so curve evaluation speed bounds the indexing overhead.
#include <benchmark/benchmark.h>

#include "sfc/hilbert.hpp"
#include "sfc/simple_curves.hpp"
#include "util/rng.hpp"

namespace {

using namespace picpar;

template <typename CurveT>
void bench_curve_index(benchmark::State& state) {
  CurveT curve(1u << 10, 1u << 10);
  Rng rng(7);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pts(4096);
  for (auto& p : pts)
    p = {static_cast<std::uint32_t>(rng.below(1u << 10)),
         static_cast<std::uint32_t>(rng.below(1u << 10))};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& p = pts[i++ & 4095];
    benchmark::DoNotOptimize(curve.index(p.first, p.second));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RowMajorIndex(benchmark::State& s) {
  bench_curve_index<sfc::RowMajorCurve>(s);
}
void BM_SnakeIndex(benchmark::State& s) {
  bench_curve_index<sfc::SnakeCurve>(s);
}
void BM_MortonIndex(benchmark::State& s) {
  bench_curve_index<sfc::MortonCurve>(s);
}
void BM_HilbertIndex(benchmark::State& s) {
  bench_curve_index<sfc::HilbertCurve>(s);
}
BENCHMARK(BM_RowMajorIndex);
BENCHMARK(BM_SnakeIndex);
BENCHMARK(BM_MortonIndex);
BENCHMARK(BM_HilbertIndex);

void BM_HilbertCoords(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::uint64_t> ds(4096);
  for (auto& d : ds) d = rng.below(1ull << 20);
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(sfc::hilbert2d_coords(10, ds[i++ & 4095]));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HilbertCoords);

}  // namespace

BENCHMARK_MAIN();
