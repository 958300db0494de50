// bench_e2e: the repository benchmark.
//
//   bench_e2e --workload beam_p32 --seed 1 --seconds 10 --trace 0
//   bench_e2e --workload beam_p32 --seed 1 --trace 1 --trace-out spans.json
//
// --trace 0 times whole pic::run_pic calls from outside (tracing off) and
// reports the end-to-end metrics. --trace 1 runs the bench-side replay
// stepper under the span log and reports the per-layer breakdown. Every
// run is checked (no exception, conservation, identical digests across
// reps, the pinned digest at the default seed); any failure makes the
// process exit 1 after printing its result. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// The process pins itself to the first CPU of its affinity mask before the
// first run_pic; rank threads inherit the pin. The sequential engine runs
// one rank at a time, so one core is its whole resource, and pinning keeps
// cross-core wakeups (an OS-scheduler effect) out of the numbers.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "pic/simulation.hpp"
#include "replay.hpp"
#include "span_log.hpp"
#include "util/cli.hpp"
#include "util/wall_clock.hpp"
#include "workloads.hpp"

extern char** environ;

using namespace picpar;
using namespace picpar::bench_e2e;

namespace {

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

double now_s() { return static_cast<double>(util::wall_clock()) * 1e-9; }

/// Variables that change what run_pic does (engine, observers, faults,
/// side outputs, cached results). A benchmark run with any of them set
/// would measure something else, so it refuses to start.
void refuse_semantic_env() {
  static const std::string_view kExact[] = {
      "PICPAR_PARALLEL", "PICPAR_WORKERS", "PICPAR_ANALYZE",
      "PICPAR_MEM_REPORT", "PICPAR_SWEEP_CACHE"};
  static const std::string_view kPrefix[] = {"PICPAR_TRACE", "PICPAR_CRASH_"};
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    const std::string_view name = kv.substr(0, kv.find('='));
    bool bad = std::find(std::begin(kExact), std::end(kExact), name) !=
               std::end(kExact);
    for (const auto pre : kPrefix) bad = bad || name.starts_with(pre);
    if (bad)
      throw std::runtime_error("refusing to run: " + std::string(name) +
                               " is set and changes run semantics; unset it");
  }
}

/// Pins the calling thread to the first CPU of its affinity mask; threads
/// it creates afterwards inherit the pin. `restore()` undoes it for the
/// unpinned probes, `pin()` redoes it.
class CpuPin {
public:
  CpuPin() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
      throw std::runtime_error(std::string("sched_getaffinity: ") +
                               std::strerror(errno));
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &original_)) {
        cpu_ = c;
        break;
      }
    if (cpu_ < 0) throw std::runtime_error("empty CPU affinity mask");
    pin();
  }
  int cpu() const { return cpu_; }
  int nproc() const { return CPU_COUNT(&original_); }
  void pin() const {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    set(one);
  }
  void restore() const { set(original_); }

private:
  static void set(const cpu_set_t& s) {
    if (sched_setaffinity(0, sizeof(s), &s) != 0)
      throw std::runtime_error(std::string("sched_setaffinity: ") +
                               std::strerror(errno));
  }
  cpu_set_t original_;
  int cpu_ = -1;
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile of a non-empty sample.
double percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(pct / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Counts every checked run and remembers the first digest of each kind
/// (set-up-only vs full) so later reps can be compared against it.
class Checker {
public:
  Checker(const Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  /// Runs `fn`, checks its digest; returns false (and counts a failure) on
  /// an exception or a failed check.
  bool run(const char* what, bool full, const std::function<Digest()>& fn,
           Digest* out = nullptr) {
    ++attempted_;
    std::string err;
    try {
      const Digest d = fn();
      if (out) *out = d;
      std::string& ref = full ? full_ref_ : setup_ref_;
      if (!d.conserved())
        err = "conservation broken: " + d.text();
      else if (ref.empty())
        ref = d.text();
      else if (d.text() != ref)
        err = "digest differs from the first checked run: " + d.text() +
              " vs " + ref;
      if (err.empty() && full && seed_ == kDefaultSeed && *w_.expect != '\0' &&
          d.hash() != w_.expect)
        err = "digest " + d.hash() + " differs from the pinned " + w_.expect +
              " (" + d.text() + ")";
    } catch (const std::exception& e) {
      err = std::string("exception: ") + e.what();
    }
    if (err.empty()) return true;
    ++failed_;
    std::fprintf(stderr, "bench_e2e: %s %s: FAILED: %s\n", w_.name, what,
                 err.c_str());
    return false;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::string& full_digest() const { return full_ref_; }

private:
  const Workload& w_;
  std::uint64_t seed_;
  int attempted_ = 0;
  int failed_ = 0;
  std::string setup_ref_;
  std::string full_ref_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the `metric`/`layer` text lines, then the JSON result line.
int report(const char* kind, const std::vector<Metric>& lines,
           const std::vector<std::string>& json_names, const Checker& chk) {
  for (const auto& m : lines)
    std::printf("%s %s %s %s\n", kind, m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += chk.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(chk.attempted()) +
          ", \"failed\": " + std::to_string(chk.failed()) +
          ", \"metrics\": {";
  bool first = true;
  for (const auto& name : json_names) {
    const auto it = std::find_if(lines.begin(), lines.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == lines.end())
      throw std::logic_error("metric " + name + " was not measured");
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + num(it->value) +
            ", \"unit\": \"" + it->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return chk.failed() == 0 ? 0 : 1;
}

// ---- end-to-end run ------------------------------------------------------

int run_e2e(const Workload& w, std::uint64_t seed, int seconds) {
  Checker chk(w, seed);
  const pic::PicParams params = make_params(w, seed);

  // Set-up: run_pic with zero iterations, several times, median reported.
  pic::PicParams setup_params = params;
  setup_params.iterations = 0;
  std::vector<double> setup;
  const double setup_t0 = now_s();
  while (setup.size() < 3 || (setup.size() < 15 && now_s() - setup_t0 < 2.0)) {
    const double t0 = now_s();
    chk.run("setup", false,
            [&] { return digest_of(pic::run_pic(setup_params)); });
    setup.push_back(now_s() - t0);
  }

  if (w.warmup)
    chk.run("warm-up", true, [&] { return digest_of(pic::run_pic(params)); });

  // Closed loop, one run_pic at a time, for `seconds` and at least three
  // calls, so the median outvotes one disturbed call.
  std::vector<double> psteps;
  double vtime = 0.0;
  const double steps = static_cast<double>(w.particles) * w.iterations;
  const double t_start = now_s();
  while (psteps.size() < 3 || now_s() - t_start < seconds) {
    const double t0 = now_s();
    Digest d;
    chk.run("rep", true, [&] { return digest_of(pic::run_pic(params)); }, &d);
    psteps.push_back(steps / (now_s() - t0));
    vtime = d.vtime_s;
  }

  std::printf("# digest %s\n", chk.full_digest().c_str());
  std::printf("# samples: psteps_per_s n=%zu, setup_s n=%zu, runs n=%d\n",
              psteps.size(), setup.size(), chk.attempted());
  std::string reps;
  for (const double v : psteps) reps += " " + num(v);
  std::printf("# psteps_per_s per call:%s\n", reps.c_str());
  const std::vector<Metric> lines = {
      {"psteps_per_s", median(psteps), "psteps/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"vtime_s", vtime, "s"},
      {"fail_frac",
       static_cast<double>(chk.failed()) / static_cast<double>(chk.attempted()),
       "ratio"},
  };
  return report("metric", lines, {"psteps_per_s", "setup_s", "peak_rss_mb"},
                chk);
}

// ---- traced run ------------------------------------------------------------

/// Per-layer metrics of one traced replay, keyed by name.
std::map<std::string, Metric> layer_metrics(const Workload& w,
                                            const ReplayResult& rr,
                                            const Breakdown& b,
                                            double replay_wall,
                                            double run_pic_wall) {
  std::map<std::string, Metric> m;
  const auto put = [&](const std::string& name, double v, const char* unit) {
    m[name] = Metric{name, v, unit};
  };
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    const auto l = static_cast<Layer>(i);
    if (l == Layer::kUnattributed) continue;
    const std::string name = layer_name(l);
    // Leaf set-up costs read as plain seconds, as the metric map names them.
    const bool plain = l == Layer::kLoadout || l == Layer::kRunEdges;
    put(plain ? name + "_s" : name + ".self_s", b.self(l), "s");
  }
  double attributed = 0.0;
  for (std::size_t i = 0; i < kNumLayers; ++i)
    if (static_cast<Layer>(i) != Layer::kUnattributed) attributed += b.self_s[i];
  put("bench.unattributed_frac", 1.0 - attributed / replay_wall, "ratio");
  put("bench.trace_overhead_frac", replay_wall / run_pic_wall - 1.0, "ratio");

  const double handoff = b.self(Layer::kHandoff);
  put("sim.handoffs", static_cast<double>(b.handoffs), "count");
  put("sim.handoff_us",
      b.handoffs ? handoff / static_cast<double>(b.handoffs) * 1e6 : 0.0,
      "us");
  const double iters = std::max(1, w.iterations);
  put("sim.msgs_per_iter", static_cast<double>(b.iter_msgs) / iters, "count");
  put("sim.bytes_per_iter", static_cast<double>(b.iter_bytes) / iters, "B");
  put("core.ghost.entries_per_touch",
      rr.foreign_touches ? static_cast<double>(rr.ghost_entries) /
                               static_cast<double>(rr.foreign_touches)
                         : 0.0,
      "ratio");
  put("core.partitioner.redistribute.calls", rr.digest.redistributions,
      "count");
  put("core.partitioner.moved_frac",
      rr.redist_present ? static_cast<double>(rr.redist_moved) /
                              static_cast<double>(rr.redist_present)
                        : 0.0,
      "ratio");
  put("sim.vtime_s", rr.digest.vtime_s, "s");

  std::vector<double> redist_ms;
  for (std::size_t i = 0; i < b.iter_ms.size(); ++i)
    if (rr.redistributed[i]) redist_ms.push_back(b.iter_ms[i]);
  const std::size_t n = b.iter_ms.size();
  put("pic.iter_ms.n", static_cast<double>(n), "count");
  if (n > 0) {
    put("pic.iter_ms.p50", median(b.iter_ms), "ms");
    put("pic.iter_ms.max", *std::max_element(b.iter_ms.begin(), b.iter_ms.end()),
        "ms");
  }
  // A percentile is reported only with at least ten samples beyond it.
  if (n >= 200) put("pic.iter_ms.p95", percentile(b.iter_ms, 95.0), "ms");
  put("pic.redist_iter_ms.n", static_cast<double>(redist_ms.size()), "count");
  if (!redist_ms.empty())
    put("pic.redist_iter_ms.p50", median(redist_ms), "ms");
  return m;
}

/// The per-layer metrics BENCHMARK.json gates on presence; every workload
/// reports all of them.
const std::vector<std::string>& json_layer_names() {
  static const std::vector<std::string> names = {
      "pic.deposit.self_s",
      "pic.gather_kick.self_s",
      "pic.push.self_s",
      "mesh.field_solve.self_s",
      "core.ghost.flush_scatter.self_s",
      "core.ghost.fetch_fields.self_s",
      "core.ghost.entries_per_touch",
      "core.partitioner.redistribute.self_s",
      "core.partitioner.redistribute.calls",
      "core.partitioner.moved_frac",
      "scenario.inject.self_s",
      "sim.handoff.self_s",
      "sim.handoffs",
      "sim.handoff_us",
      "sim.collective.self_s",
      "sim.msgs_per_iter",
      "sim.bytes_per_iter",
      "setup.domain_build.self_s",
      "setup.init.self_s",
      "core.partitioner.distribute.self_s",
      "particles.loadout_s",
      "sim.run_edges_s",
      "pic.iteration.self_s",
      "pic.iter_ms.p50",
      "pic.iter_ms.max",
      "bench.unattributed_frac",
      "bench.trace_overhead_frac",
  };
  return names;
}

int run_traced(const Workload& w, std::uint64_t seed, int seconds,
               const std::string& trace_out, const CpuPin& pin) {
  Checker chk(w, seed);
  const pic::PicParams params = make_params(w, seed);

  // Pairs of (untraced run_pic, traced replay) for `seconds`, at least one.
  // The first run_pic digest is the reference every replay must equal.
  std::vector<std::map<std::string, Metric>> reps;
  std::vector<double> run_pic_walls;
  const double t_start = now_s();
  while (reps.empty() || now_s() - t_start < seconds) {
    const double t0 = now_s();
    const bool ref_ok = chk.run(
        "run_pic", true, [&] { return digest_of(pic::run_pic(params)); });
    const double t1 = now_s();
    SpanLog log(log_capacity(params));
    ReplayResult rr;
    const bool replay_ok = chk.run("replay", true, [&] {
      rr = replay(params, log);
      return rr.digest;
    });
    const double t2 = now_s();
    if (!ref_ok || !replay_ok) break;
    run_pic_walls.push_back(t1 - t0);
    reps.push_back(layer_metrics(w, rr, attribute(log.events(), w.iterations),
                                 t2 - t1, t1 - t0));
    if (!trace_out.empty() && reps.size() == 1)
      log.write_chrome_trace(trace_out, params.nranks);
  }

  std::vector<Metric> lines;
  if (!reps.empty())
    for (const auto& [name, first] : reps.front()) {
      std::vector<double> v;
      for (const auto& r : reps)
        if (const auto it = r.find(name); it != r.end())
          v.push_back(it->second.value);
      lines.push_back({name, median(v), first.unit});
    }

  if (w.offpath && !run_pic_walls.empty()) {
    // Off-path costs, each against the pinned sequential run_pic median;
    // every probe must reproduce the digest bit for bit.
    const double base = median(run_pic_walls);
    const auto probe = [&](const char* name, const char* what, bool unpinned,
                           const std::function<void(pic::PicParams&)>& tweak,
                           double offset) {
      pic::PicParams p = params;
      tweak(p);
      if (unpinned) pin.restore();
      const double t0 = now_s();
      const bool ok = chk.run(
          what, true, [&] { return digest_of(pic::run_pic(p)); });
      const double wall = now_s() - t0;
      if (unpinned) pin.pin();
      if (ok) lines.push_back({name, wall / base - offset, "ratio"});
    };
    probe("trace.overhead_frac", "tracer-on", false,
          [](pic::PicParams& p) { p.trace.enabled = true; }, 1.0);
    probe("analysis.overhead_frac", "analyzer-on", false,
          [](pic::PicParams& p) { p.analyze.enabled = true; }, 1.0);
    probe("sim.unpinned_slowdown", "unpinned", true, [](pic::PicParams&) {},
          0.0);
    probe("runtime.par_over_seq", "parallel-engine", true,
          [&](pic::PicParams& p) {
            p.exec.parallel = true;
            p.exec.workers = pin.nproc();
          },
          0.0);
  }

  std::printf("# digest %s\n", chk.full_digest().c_str());
  std::printf("# samples: traced reps n=%zu, runs n=%d\n", reps.size(),
              chk.attempted());
  if (reps.empty()) {
    // Nothing measured: still print a well-formed failing result.
    std::printf("{\"correct\": false, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {}}\n",
                chk.attempted(), std::max(1, chk.failed()));
    return 1;
  }
  return report("layer", lines, json_layer_names(), chk);
}

int run_main(int argc, char** argv) {
  Cli cli("bench_e2e", "repository benchmark: end-to-end and per-layer");
  auto workload = cli.flag<std::string>(
      "workload", "", "beam_p4 | beam_p32 | inject_p8 | uniform_p1024");
  auto seed = cli.flag<long>("seed", static_cast<long>(kDefaultSeed),
                             "workload seed (feeds init.seed)");
  auto seconds = cli.flag<int>("seconds", 10, "measurement window");
  auto trace = cli.flag<int>("trace", 0,
                             "0 = end-to-end metrics, 1 = per-layer replay");
  auto trace_out = cli.flag<std::string>(
      "trace-out", "", "with --trace 1: write the spans as Chrome-trace JSON");
  auto shrunk = cli.flag<bool>(
      "shrink", false,
      "test size (32x16 mesh, 2,000 particles, p=4, 20 iterations)");
  cli.parse(argc, argv);

  refuse_semantic_env();
  if (*seed < 0) throw std::invalid_argument("--seed must be >= 0");
  if (*seconds < 0) throw std::invalid_argument("--seconds must be >= 0");
  if (*trace != 0 && *trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  if (!kOptimizedBuild && !*shrunk)
    throw std::runtime_error(
        "refusing to time a build without NDEBUG (build type " +
        std::string(PICPAR_BENCH_BUILD_TYPE) + "); configure with Release");
  const Workload w =
      *shrunk ? shrink(find_workload(*workload)) : find_workload(*workload);

  const CpuPin pin;
  std::printf("# bench_e2e workload=%s seed=%ld seconds=%d trace=%d\n", w.name,
              *seed, *seconds, *trace);
  std::printf(
      "# config: scenario=%s mesh=%ux%u particles=%llu ranks=%d "
      "iterations=%d engine=sequential policy=sar%s\n",
      w.scenario, w.nx, w.ny, static_cast<unsigned long long>(w.particles),
      w.ranks, w.iterations, *shrunk ? " (shrunk)" : "");
  std::printf("# host: pinned cpu=%d nproc=%d build=%s\n", pin.cpu(),
              pin.nproc(), PICPAR_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  const auto s = static_cast<std::uint64_t>(*seed);
  return *trace ? run_traced(w, s, *seconds, *trace_out, pin)
                : run_e2e(w, s, *seconds);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
