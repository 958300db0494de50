// Runtime speedup: wall-clock time with several worker threads vs one on
// the Figure-17 iteration trace at 4, 16, and 64 simulated ranks.
//
// The deterministic contract means every worker count produces
// bit-identical PicResults — the bench verifies that on every
// configuration and reports "identical=yes/no" next to the timings. Speedup
// expectations are conditional on host parallelism: blocks of ranks can
// only overlap on real cores, so the header reports hardware_concurrency
// and the expected shape only applies on hosts with >= 4 cores. Timed
// runs execute serially (never under --jobs-style co-scheduling) so wall
// clocks are not distorted by contention.
#include <chrono>
#include <cmath>
#include <thread>

#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// One timed run through the sweep driver. Deliberately uncached and
/// single-job: a cache hit would time a file read, and co-scheduling
/// distorts wall clocks. Note seq and par configs share one fingerprint
/// (exec mode is excluded from the content address — the determinism
/// contract), which is exactly why they must NOT go in one sweep: dedup
/// would collapse the pair this bench exists to compare.
pic::PicResult sweep_run(const pic::PicParams& params) {
  sweep::SweepOptions opt;  // jobs=1, no cache
  return sweep::run_sweep({{"timed", params}}, opt).outcomes.at(0).result;
}

bool identical(const pic::PicResult& a, const pic::PicResult& b) {
  if (a.total_seconds != b.total_seconds) return false;
  if (a.compute_seconds != b.compute_seconds) return false;
  if (a.redistributions != b.redistributions) return false;
  if (a.final_particles != b.final_particles) return false;
  if (a.field_energy != b.field_energy) return false;
  if (a.kinetic_energy != b.kinetic_energy) return false;
  if (a.machine.ranks.size() != b.machine.ranks.size()) return false;
  for (std::size_t i = 0; i < a.machine.ranks.size(); ++i) {
    if (a.machine.ranks[i].clock != b.machine.ranks[i].clock) return false;
    const auto ta = a.machine.ranks[i].stats.total();
    const auto tb = b.machine.ranks[i].stats.total();
    if (ta.msgs_sent != tb.msgs_sent || ta.bytes_sent != tb.bytes_sent ||
        ta.msgs_recv != tb.msgs_recv || ta.comm_seconds != tb.comm_seconds)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_runtime_speedup",
          "several worker threads vs one, wall-clock");
  auto workers = cli.flag<int>("workers", 0,
                               "worker threads when parallel (0 = cores)");
  auto repeats = cli.flag<int>("repeats", 1, "timed repetitions per mode");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.iters(500);

  const unsigned cores = std::thread::hardware_concurrency();
  bench::print_header(
      "Runtime speedup — several worker threads vs one",
      "Fig-17 trace, irregular, mesh=128x64, iters=" + std::to_string(iters) +
          ", host cores=" + std::to_string(cores) +
          (cores >= 4 ? "" : " (expect ~1x below 4 cores)"));

  Table t({"ranks", "seq_wall_s", "par_wall_s", "speedup", "identical"});
  t.set_title("W workers vs one, wall-clock");
  for (const int ranks : {4, 16, 64}) {
    auto params = bench::paper_params("irregular_beam", 128, 64,
                                      scale.particles(32768), ranks);
    params.iterations = iters;
    params.policy = "sar";

    pic::PicResult seq, par;
    double seq_s = 0.0, par_s = 0.0;
    for (int rep = 0; rep < std::max(1, *repeats); ++rep) {
      auto p = params;
      p.exec.parallel = false;
      seq_s += wall_seconds([&] { seq = sweep_run(p); });
      p.exec.parallel = true;
      p.exec.workers = *workers;
      par_s += wall_seconds([&] { par = sweep_run(p); });
    }
    const int reps = std::max(1, *repeats);
    seq_s /= reps;
    par_s /= reps;
    t.row()
        .add(ranks)
        .add(bench::fmt_s(seq_s))
        .add(bench::fmt_s(par_s))
        .add(bench::fmt_s(par_s > 0 ? seq_s / par_s : 0.0))
        .add(identical(seq, par) ? "yes" : "NO");
  }
  t.print(std::cout);
  std::cout << "\nExpected: identical=yes everywhere. On a 4-core host "
               "this short trace reads 1.3x-2.5x at 4 ranks, 1.0x-1.5x at "
               "16 and 0.7x-0.8x at 64, where blocks of 16 small ranks pay "
               "more for the engine mutex than they overlap; ~1x or below "
               "on single-core hosts.\n";
  return 0;
}
