#include "pic/simulation.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "analysis/analyzer.hpp"
#include "analysis/audit.hpp"
#include "core/indexing.hpp"
#include "core/invariants.hpp"
#include "core/policy.hpp"
#include "mesh/local_grid.hpp"
#include "mesh/maxwell.hpp"
#include "mesh/poisson.hpp"
#include "pic/kernels.hpp"
#include "pic/stepper.hpp"
#include "scenario/scenario.hpp"
#include "sfc/index_cache.hpp"
#include "sim/comm.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/tracer.hpp"
#include "util/env.hpp"

namespace picpar::pic {

using core::GhostExchange;
using core::ParticlePartitioner;
using mesh::FieldState;
using mesh::GridPartition;
using mesh::LocalGrid;
using particles::ParticleArray;
using sim::Comm;
using sim::Phase;

GridPartition grid_partition(const PicParams& params, const sfc::Curve& curve,
                             int p) {
  if (params.grid_decomp == GridDecomp::kBlock)
    return GridPartition::block_auto(params.grid, p);
  return GridPartition::curve(params.grid, p, curve);
}

void append_initial_slice(const ParticleArray& global, int rank, int p,
                          ParticleArray& out) {
  const auto total = static_cast<std::uint64_t>(global.size());
  const std::uint64_t b =
      static_cast<std::uint64_t>(rank) * total / static_cast<std::uint64_t>(p);
  const std::uint64_t e = static_cast<std::uint64_t>(rank + 1) * total /
                          static_cast<std::uint64_t>(p);
  out.reserve(out.size() + static_cast<std::size_t>(e - b));
  for (std::uint64_t i = b; i < e; ++i)
    out.push_back(global.rec(static_cast<std::size_t>(i)));
}

namespace {

/// Whole-string parse of `text` into `out`: false on an empty string,
/// trailing characters or a value out of range.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const auto r = std::from_chars(text.data(), text.data() + text.size(), out);
  return r.ec == std::errc{} && r.ptr == text.data() + text.size();
}

/// PICPAR_CRASH_PROB and its siblings: the whole value must be a finite
/// number.
double crash_env_number(const char* name, const char* value) {
  double v = 0.0;
  if (!parse_whole(value, v) || !std::isfinite(v))
    throw std::invalid_argument(std::string(name) + "=\"" + value +
                                "\" is not a finite number");
  return v;
}

}  // namespace

std::vector<sim::CrashPoint> parse_crash_schedule(const std::string& spec) {
  std::vector<sim::CrashPoint> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const std::size_t at = entry.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= entry.size())
      throw std::invalid_argument("crash schedule entry '" + entry +
                                  "' is not rank@vtime");
    const std::string_view e = entry;
    sim::CrashPoint cp;
    if (!parse_whole(e.substr(0, at), cp.rank))
      throw std::invalid_argument("crash schedule rank '" + entry +
                                  "' is not an integer");
    if (!parse_whole(e.substr(at + 1), cp.vtime) || !std::isfinite(cp.vtime))
      throw std::invalid_argument("crash schedule vtime '" + entry +
                                  "' is not a finite number");
    if (cp.rank < 0 || cp.vtime < 0.0)
      throw std::invalid_argument("crash schedule entry '" + entry +
                                  "' must be nonnegative");
    out.push_back(cp);
  }
  return out;
}

void apply_crash_env(sim::FaultConfig& cfg) {
  if (const char* s = std::getenv("PICPAR_CRASH_RANKS"); s && *s) {
    const auto sched = parse_crash_schedule(s);
    cfg.crash_schedule.insert(cfg.crash_schedule.end(), sched.begin(),
                              sched.end());
  }
  if (const char* s = std::getenv("PICPAR_CRASH_PROB"); s && *s)
    cfg.crash_prob = crash_env_number("PICPAR_CRASH_PROB", s);
  if (const char* s = std::getenv("PICPAR_CRASH_MAX_T"); s && *s)
    cfg.crash_vtime_max = crash_env_number("PICPAR_CRASH_MAX_T", s);
  if (const char* s = std::getenv("PICPAR_CRASH_LEASE"); s && *s)
    cfg.crash_lease_seconds = crash_env_number("PICPAR_CRASH_LEASE", s);
}

/// One rank's measurements of one iteration; merged after the run.
struct LocalIter {
  double clock_end = 0.0;
  /// The iteration's loop time agreed over the group, from a mover that
  /// measures it; without one, the loop time is the iteration's span.
  std::optional<double> loop_seconds_global;
  std::uint64_t scatter_sent_bytes = 0;
  std::uint64_t scatter_recv_bytes = 0;
  std::uint64_t scatter_sent_msgs = 0;
  std::uint64_t scatter_recv_msgs = 0;
  std::uint64_t ghost_entries = 0;
  bool redistributed = false;
  double redist_seconds_global = 0.0;
  std::uint64_t redist_sent = 0;
  std::uint32_t violation_mask = 0;
  bool recovered = false;
  bool crash_recovered = false;
  std::uint64_t injected = 0;  ///< injector particles kept by this rank
  std::uint64_t absorbed = 0;  ///< lost through an open boundary
};

struct RankOutput {
  std::vector<LocalIter> iters;
  double clock_after_init = 0.0;
  double init_seconds_global = 0.0;
  double field_energy = 0.0;
  double kinetic_energy = 0.0;
  double total_charge = 0.0;
  std::uint64_t final_particles = 0;
  int recoveries = 0;
  int crash_recoveries = 0;
  double mttr_total = 0.0;
  std::uint64_t crash_lost = 0;
  std::uint64_t crash_restored = 0;
  // Per-rank memory budget (peaks over the run), for the PICPAR_MEM_REPORT
  // CSV. Host-side only: deliberately NOT part of PicResult, so the cached
  // sweep serialization format is untouched.
  std::size_t mem_machine_bytes = 0;  ///< sparse transport tables
  std::size_t mem_exchange_bytes = 0;  ///< ghost tables + staged messages
  std::size_t mem_sort_bytes = 0;      ///< partitioner sort scratch
  std::size_t transport_peers = 0;     ///< distinct peers with transport state
};

namespace {

[[noreturn]] void refuse(const char* who, const std::string& what) {
  throw std::invalid_argument(std::string(who) + ": " + what);
}

const scenario::Scenario& checked_scenario(const PicParams& p,
                                           const char* who) {
  if (p.init.total == 0) refuse(who, "init.total must be > 0");
  if (p.iterations < 0) refuse(who, "iterations must be >= 0");
  return scenario::get_scenario(p.scenario);  // throws for an unknown name
}

}  // namespace

RunSetup::RunSetup(const PicParams& p, const char* who)
    : params(p),
      sc(checked_scenario(p, who)),
      global(sc.loadout(p.grid, p.init)),
      dt(p.dt > 0.0 ? p.dt : mesh::MaxwellSolver::max_dt(p.grid)) {}

RunSetup baseline_setup(const PicParams& params, const char* who) {
  RunSetup run(params, who);
  if (run.sc.injector.enabled ||
      run.sc.boundary != scenario::Boundary::kPeriodic)
    refuse(who, "scenario " + run.sc.name + " injects or absorbs particles");
  if (params.faults.any()) refuse(who, "faults are not supported");
  if (params.validate.enabled()) refuse(who, "validate is not supported");
  return run;
}

MeshLayout::MeshLayout(std::shared_ptr<const LocalGrid> lg,
                       core::DedupPolicy dedup)
    : f(*lg), ghosts(*lg, dedup), lg_(std::move(lg)) {}

double MeshLayout::field_energy() const {
  return counted() ? f.energy(lg()) : 0.0;
}

double MeshLayout::total_charge() const {
  if (!counted()) return 0.0;
  // picpar-lint: allow(float-reduction-order) fixed local-index sum
  double sum = 0.0;
  for (std::size_t l = 0; l < lg().owned(); ++l) sum += f.rho[l];
  return sum * lg().grid().dx() * lg().grid().dy();
}

namespace {

class DistributedLayout final : public MeshLayout {
public:
  DistributedLayout(const RunSetup& run, const GridPartition& part, int rank)
      : MeshLayout(std::make_shared<const LocalGrid>(part, rank),
                   run.params.dedup),
        params_(run.params),
        maxwell_(lg(), run.dt),
        poisson_(lg()),
        phi_(lg().make_field()) {}

  void sum_sources(Comm& c) override { ghosts.flush_scatter(c, f); }

  void solve(Comm& c) override {
    const double delta = params_.machine.delta;
    const PhaseCosts& pc = params_.costs;
    switch (params_.solver) {
      case FieldSolveKind::kMaxwell:
        maxwell_.step(c, f);
        c.charge(static_cast<double>(lg().owned()) * pc.field_per_node *
                 delta);
        break;
      case FieldSolveKind::kPoisson: {
        const auto pr = poisson_.solve(c, f.rho, phi_);
        poisson_.gradient(phi_, f.ex, f.ey);
        c.charge(static_cast<double>(lg().owned()) * 0.25 *
                 pc.field_per_node * delta *
                 static_cast<double>(pr.iterations) / 10.0);
        break;
      }
      case FieldSolveKind::kNone:
        break;
    }
  }

  void fetch(Comm& c) override { ghosts.fetch_fields(c, f); }

private:
  const PicParams& params_;
  mesh::MaxwellSolver maxwell_;
  mesh::PoissonSolver poisson_;
  std::vector<double> phi_;
};

}  // namespace

std::unique_ptr<MeshLayout> distributed_layout(const RunSetup& run,
                                               const GridPartition& part,
                                               int rank) {
  return std::make_unique<DistributedLayout>(run, part, rank);
}

PicResult run_stepper(const RunSetup& run, const Driver& driver) {
  const PicParams& params = run.params;
  const mesh::GridDesc grid = params.grid;
  const double dt = run.dt;
  const double delta = params.machine.delta;
  const PhaseCosts& pc = params.costs;
  const scenario::DriverSpec* field_driver =
      run.sc.driver.enabled ? &run.sc.driver : nullptr;

  std::vector<RankOutput> outputs(static_cast<std::size_t>(params.nranks));
  // Energy history of the run, written by whichever rank is group rank 0.
  std::vector<EnergySample> energy;

  auto program = [&](Comm& comm) {
    // The world rank is this thread's permanent identity: it indexes host
    // outputs. comm.rank()/comm.size() are group coordinates that shrink
    // after a recovery, so they are re-read after every membership change
    // instead of being cached up front.
    auto& out = outputs[static_cast<std::size_t>(comm.world_rank())];
    out.iters.reserve(static_cast<std::size_t>(params.iterations));
    const auto mover = driver.mover(comm, out);
    std::unique_ptr<MeshLayout> layout;
    ParticleArray mine(run.global.species());
    // Per-subsystem peaks behind the mem.* budget breakdown: transport
    // tables inside the machine, ghost-exchange tables, sort scratch. All
    // three are deterministic functions of the rank's history, so the marks
    // (and the per-rank CSV they feed) are mode-independent.
    std::size_t mem_machine = 0;
    std::size_t mem_exchange = 0;
    std::size_t mem_sort = 0;

    // This rank's view of the mesh for the current group, seeded.
    const auto build_mesh = [&](Comm& c) {
      layout = driver.layout(c);
      scenario::apply_field_seed(run.sc.field_seed, grid, layout->lg(),
                                 layout->f);
    };

    const auto do_iter = [&](Comm& c, int iter) {
      mesh::FieldState& f = layout->f;
      GhostExchange& ghosts = layout->ghosts;
      LocalIter rec;
      mover->begin_iteration(c, iter, mine, rec);

      // ---- Scatter phase ----
      c.set_phase(Phase::kScatter);
      const auto stats_before = c.stats();
      ghosts.begin_iteration();
      f.clear_sources();
      const std::size_t n = mine.size();
      deposit(grid, mine, f, ghosts);
      c.charge(static_cast<double>(4 * n) * pc.scatter_per_vertex * delta);
      rec.ghost_entries = ghosts.entries();
      c.mark(trace::kMarkGhostEntries, iter,
             static_cast<double>(rec.ghost_entries));
      layout->sum_sources(c);
      {
        const auto d = c.stats().diff(stats_before).phase(Phase::kScatter);
        rec.scatter_sent_bytes = d.bytes_sent;
        rec.scatter_recv_bytes = d.bytes_recv;
        rec.scatter_sent_msgs = d.msgs_sent;
        rec.scatter_recv_msgs = d.msgs_recv;
      }

      // ---- Field solve phase ----
      c.set_phase(Phase::kFieldSolve);
      layout->solve(c);

      // ---- Gather phase ----
      c.set_phase(Phase::kGather);
      layout->fetch(c);
      gather_kick(grid, dt, field_driver, static_cast<double>(iter) * dt,
                  mine, f, ghosts);
      c.charge(static_cast<double>(4 * n) * pc.gather_per_vertex * delta);

      // ---- Push phase ----
      c.set_phase(Phase::kPush);
      mover->push(c, mine, rec);

      // ---- Realignment ----
      c.set_phase(Phase::kOther);
      mover->realign(c, iter, mine, *layout, rec);

      // Per-iteration trace samples (free without an observer): local
      // particle count on every rank, global loop time on group rank 0.
      c.mark(trace::kMarkParticles, iter, static_cast<double>(mine.size()));
      if (rec.loop_seconds_global && c.rank() == 0)
        c.mark(trace::kMarkIter, iter, *rec.loop_seconds_global);
      rec.clock_end = c.clock();
      out.iters.push_back(rec);

      mem_machine = std::max(mem_machine, c.memory_bytes());
      mem_exchange = std::max(mem_exchange, ghosts.memory_bytes());
      mem_sort = std::max(mem_sort, mover->scratch_bytes());

      if (params.sample_energy_every > 0 &&
          (iter + 1) % params.sample_energy_every == 0) {
        const double fe = c.allreduce_sum(layout->field_energy());
        const double ke = c.allreduce_sum(mine.kinetic_energy());
        if (c.rank() == 0) energy.push_back({iter, fe, ke});
      }
    };

    // ---- Main loop with fail-stop recovery ----
    // A crash surfaces on survivors as PeerFailedError thrown from whatever
    // communication they were blocked in. Recovery itself may be interrupted
    // by further crashes (a cascade); the loop simply re-enters the mover's
    // recover, whose membership agreement folds in the newly failed ranks.
    bool initialized = false;
    bool need_recover = false;
    int iter = 0;
    for (;;) {
      try {
        if (need_recover) {
          const int resume = mover->recover(comm, mine);
          need_recover = false;
          // Iterations from the restore point on run again.
          const auto kept = static_cast<std::size_t>(std::max(resume, 0));
          if (out.iters.size() > kept) out.iters.resize(kept);
          if (comm.rank() == 0)
            while (!energy.empty() && energy.back().iter >= resume)
              energy.pop_back();
          if (resume < 0) {
            initialized = false;
          } else {
            build_mesh(comm);
            iter = resume;
          }
        }
        if (!initialized) {
          build_mesh(comm);
          out.iters.clear();
          mine.clear();
          out.clock_after_init = mover->place(comm, mine);
          initialized = true;
          iter = 0;
        }
        while (iter < params.iterations) {
          do_iter(comm, iter);
          ++iter;
        }
        break;
      } catch (const sim::PeerFailedError&) {
        need_recover = true;
      }
    }

    // Final physics diagnostics (local shares; merged by the aggregator).
    out.final_particles = static_cast<std::uint64_t>(mine.size());
    out.field_energy = layout->field_energy();
    out.kinetic_energy = mine.kinetic_energy();
    out.total_charge = layout->total_charge();
    if (mem_machine > 0)
      comm.mark(trace::kMarkMemMachine, -1, static_cast<double>(mem_machine));
    if (mem_exchange > 0)
      comm.mark(trace::kMarkMemExchange, -1,
                static_cast<double>(mem_exchange));
    if (mem_sort > 0)
      comm.mark(trace::kMarkMemSort, -1, static_cast<double>(mem_sort));
    out.mem_machine_bytes = mem_machine;
    out.mem_exchange_bytes = mem_exchange;
    out.mem_sort_bytes = mem_sort;
    out.transport_peers = comm.transport_peers();
  };

  sim::Machine machine(params.nranks, params.machine, driver.faults);

  // ---- worker threads (default: one, the calling thread) ----
  if (params.exec.parallel || sim::parallel_env_enabled())
    machine.set_workers(sim::resolve_workers(params.exec.workers));

  // ---- opt-in happens-before analysis (zero cost when off) ----
  const bool analyze_on = params.analyze.enabled ||
                          params.analyze.audit_determinism ||
                          analysis::analyzer_env_enabled();
  analysis::Analyzer analyzer;

  // ---- opt-in deterministic tracing (zero cost when off) ----
  TraceParams tp = params.trace;
  if (tp.path.empty())
    if (const char* p = trace::trace_env_path()) tp.path = p;
  if (tp.metrics_path.empty())
    if (const char* p = trace::trace_metrics_env_path()) tp.metrics_path = p;
  const bool trace_on = tp.on();
  trace::Tracer::Options topt;
  topt.flows = tp.flows;
  trace::Tracer tracer(topt);

  sim::ObserverChain observers;
  if (analyze_on) observers.add(&analyzer);
  if (trace_on) observers.add(&tracer);
  if (!observers.empty()) machine.set_observer(&observers);

  int audit_state = -1;
  sim::RunResult ran;
  if (analyze_on && params.analyze.audit_determinism) {
    // Per-rank outputs, the energy history and the components' shared
    // state (run_pic's checkpoint store) are host-side state the program
    // accumulates into, so they reset between the two runs; the result is
    // the second run's.
    auto audit = analysis::audit_determinism(
        machine, observers, analyzer, program, [&] {
          for (auto& o : outputs) o = RankOutput{};
          energy.clear();
          driver.reset();
        });
    audit_state = audit.deterministic() ? 1 : 0;
    ran = std::move(audit.run);
  } else {
    ran = machine.run(program);
  }

  // ---- Aggregate ----
  PicResult result;
  result.machine = std::move(ran);
  result.total_seconds = result.machine.makespan();
  result.compute_seconds = result.machine.max_compute();

  // Survivor bookkeeping: crashed ranks' outputs stop mid-run and describe
  // rolled-back state, so only survivors feed the aggregates. The first
  // survivor is the final group rank 0 — the reference for global values.
  std::vector<char> alive(static_cast<std::size_t>(params.nranks), 1);
  for (const auto& cr : result.machine.crashes)
    alive[static_cast<std::size_t>(cr.rank)] = 0;
  int first_survivor = -1;
  for (int r = 0; r < params.nranks; ++r)
    if (alive[static_cast<std::size_t>(r)]) {
      first_survivor = r;
      break;
    }
  result.crash_count = static_cast<int>(result.machine.crashes.size());
  result.final_ranks = params.nranks - result.crash_count;

  const RankOutput* ref =
      first_survivor >= 0
          ? &outputs[static_cast<std::size_t>(first_survivor)]
          : nullptr;
  result.initial_distribution_seconds = ref ? ref->init_seconds_global : 0.0;

  double prev_end = 0.0;
  for (int r = 0; r < params.nranks; ++r)
    if (alive[static_cast<std::size_t>(r)])
      prev_end = std::max(prev_end,
                          outputs[static_cast<std::size_t>(r)]
                              .clock_after_init);

  result.iters.resize(static_cast<std::size_t>(params.iterations));
  for (int i = 0; i < params.iterations; ++i) {
    auto& rec = result.iters[static_cast<std::size_t>(i)];
    rec.iter = i;
    double end = 0.0;
    for (int r = 0; r < params.nranks; ++r) {
      if (!alive[static_cast<std::size_t>(r)]) continue;
      const auto& o = outputs[static_cast<std::size_t>(r)];
      if (static_cast<std::size_t>(i) >= o.iters.size()) continue;
      const auto& li = o.iters[static_cast<std::size_t>(i)];
      end = std::max(end, li.clock_end);
      rec.scatter_max_sent_bytes =
          std::max(rec.scatter_max_sent_bytes, li.scatter_sent_bytes);
      rec.scatter_max_recv_bytes =
          std::max(rec.scatter_max_recv_bytes, li.scatter_recv_bytes);
      rec.scatter_max_sent_msgs =
          std::max(rec.scatter_max_sent_msgs, li.scatter_sent_msgs);
      rec.scatter_max_recv_msgs =
          std::max(rec.scatter_max_recv_msgs, li.scatter_recv_msgs);
      rec.max_ghost_entries =
          std::max(rec.max_ghost_entries, li.ghost_entries);
      rec.redistributed = rec.redistributed || li.redistributed;
      rec.redist_seconds =
          std::max(rec.redist_seconds, li.redist_seconds_global);
      rec.redist_particles_moved += li.redist_sent;
      rec.violation_mask |= li.violation_mask;
      rec.recovered = rec.recovered || li.recovered;
      rec.crash_recovered = rec.crash_recovered || li.crash_recovered;
      // Each injected particle is kept by exactly one rank (owner_of is a
      // function of the key), so summing per-rank counts gives the global
      // emitted/absorbed totals.
      result.emitted_particles += li.injected;
      result.absorbed_particles += li.absorbed;
    }
    rec.exec_seconds = end - prev_end;
    if (ref && static_cast<std::size_t>(i) < ref->iters.size())
      rec.loop_seconds = ref->iters[static_cast<std::size_t>(i)]
                             .loop_seconds_global.value_or(rec.exec_seconds);
    prev_end = end;
    if (rec.redistributed) {
      ++result.redistributions;
      // picpar-lint: allow(float-reduction-order) iteration-order sum
      result.redist_seconds_total += rec.redist_seconds;
    }
    if (rec.violation_mask != 0) ++result.violation_iterations;
  }

  result.initial_particles = static_cast<std::uint64_t>(run.global.size());
  result.recoveries = ref ? ref->recoveries : 0;
  result.crash_recoveries = ref ? ref->crash_recoveries : 0;
  result.mttr_seconds_total = ref ? ref->mttr_total : 0.0;
  result.crash_lost_particles = ref ? ref->crash_lost : 0;
  result.crash_restored_particles = ref ? ref->crash_restored : 0;

  std::uint64_t final_max = 0;
  for (int r = 0; r < params.nranks; ++r) {
    if (!alive[static_cast<std::size_t>(r)]) continue;
    const auto& o = outputs[static_cast<std::size_t>(r)];
    result.final_particles += o.final_particles;
    final_max = std::max(final_max, o.final_particles);
    // Rank-order merge of per-rank partials (deterministic by design).
    // picpar-lint: allow(float-reduction-order) rank-order merge
    result.field_energy += o.field_energy;
    // picpar-lint: allow(float-reduction-order) rank-order merge
    result.kinetic_energy += o.kinetic_energy;
    // picpar-lint: allow(float-reduction-order) rank-order merge
    result.total_charge += o.total_charge;
  }
  if (result.final_ranks > 0 && result.final_particles > 0)
    result.final_imbalance =
        static_cast<double>(final_max) /
        (static_cast<double>(result.final_particles) /
         static_cast<double>(result.final_ranks));
  if (ref) result.energy_history = std::move(energy);

  if (analyze_on) {
    result.analysis_findings =
        static_cast<std::int64_t>(analyzer.total());
    if (result.analysis_findings > 0) result.analysis_report = analyzer.report();
    result.hb_fingerprint = analyzer.fingerprint();
    result.determinism_audit = audit_state;
  }

  if (trace_on) {
    result.traced = true;
    result.trace_events = tracer.events();
    result.phase_wall_us.assign(static_cast<std::size_t>(sim::kNumPhases),
                                0.0);
    for (const auto& s : tracer.data().spans)
      result.phase_wall_us[static_cast<std::size_t>(s.phase)] += s.w1 - s.w0;
    // The analyzer's own footprint (vector clocks are O(p) per rank by
    // design — opt-in diagnostics) joins the mem.* breakdown only when both
    // observers ran; folded here, before the snapshot, because the tracer
    // cannot see the analyzer.
    if (analyze_on)
      tracer.metrics().set("mem.analyzer_bytes",
                           static_cast<double>(analyzer.memory_bytes()));
    result.metrics_json = tracer.metrics().snapshot().to_json();
    result.timeline_csv = tracer.timeline().to_csv();
    if (!tp.path.empty() || !tp.metrics_path.empty()) {
      trace::ChromeTraceOptions copt;
      copt.flows = tp.flows;
      // Concurrent run_pic calls (e.g. a bench's --jobs pool) may target
      // the same file; serialize so each write is whole.
      static std::mutex g_trace_write_mutex;
      std::lock_guard<std::mutex> lk(g_trace_write_mutex);
      if (!tp.path.empty())
        trace::write_chrome_trace(tp.path, tracer.data(), copt,
                                  &tracer.timeline());
      if (!tp.metrics_path.empty()) {
        std::ofstream f(tp.metrics_path, std::ios::binary | std::ios::trunc);
        if (!f)
          throw std::runtime_error("trace: cannot open " + tp.metrics_path);
        f << result.metrics_json;
      }
    }
  }

  // ---- Per-rank memory-budget report (opt-in via PICPAR_MEM_REPORT) ----
  // One CSV row per world rank: the peak per-subsystem bytes gathered at
  // the end of the program lambda. Every value is a size-based function of
  // the rank's deterministic history, so two runs of the same program —
  // sequential or parallel — write byte-identical files; the large-p CI
  // job relies on that with a straight cmp. Crashed ranks never reach the
  // end of the lambda and report zeros, flagged by alive=0.
  if (const char* mr = env_path("PICPAR_MEM_REPORT")) {
    std::ofstream f(mr, std::ios::binary | std::ios::trunc);
    if (!f)
      throw std::runtime_error("mem report: cannot open " + std::string(mr));
    f << "rank,alive,machine_bytes,exchange_bytes,sort_bytes,"
         "transport_peers\n";
    for (int r = 0; r < params.nranks; ++r) {
      const auto& o = outputs[static_cast<std::size_t>(r)];
      f << r << ',' << static_cast<int>(alive[static_cast<std::size_t>(r)])
        << ',' << o.mem_machine_bytes << ',' << o.mem_exchange_bytes << ','
        << o.mem_sort_bytes << ',' << o.transport_peers << '\n';
    }
  }
  return result;
}

namespace {

/// Abstract ops charged per particle copied into or out of a checkpoint.
constexpr std::uint64_t kCheckpointOpsPerParticle = 2;

/// Grid partitions shared by every rank of a run, one per group size. A
/// partition is a pure function of (grid, decomposition, curve, p), so the
/// first rank that needs a size builds it and every other rank reuses it;
/// crash recovery asks for the survivors' smaller size. Entries are never
/// erased, so the references handed out stay valid for the whole run.
/// Mutex-guarded because ranks on different workers race to first use;
/// nothing under the lock calls Comm, so no fiber switches while holding
/// it.
struct PartitionTable {
  std::mutex mu;
  std::map<int, GridPartition> by_size;

  const GridPartition& get(const PicParams& params, const sfc::Curve& curve,
                           int p) {
    std::lock_guard<std::mutex> lk(mu);
    auto it = by_size.find(p);
    if (it == by_size.end())
      it = by_size.emplace(p, grid_partition(params, curve, p)).first;
    return it->second;
  }
};

/// One subdomain's particles in the shared checkpoint store. `valid` is the
/// torn-write seal: in crash mode it is cleared before the shard contents
/// are rewritten and set only after the write (and its charged virtual
/// time) completed, so a rank that crashes mid-checkpoint leaves a shard
/// the loader rejects.
struct CkptShard {
  int owner_world = -1;
  bool valid = false;
  std::vector<particles::ParticleRec> recs;
};

struct CkptBuffer {
  int seq = -2;   ///< checkpoint sequence number (-2 = never used)
  int iter = -1;  ///< iteration after which it was taken (-1 = baseline)
  int nshards = 0;
  std::vector<CkptShard> shards;  ///< indexed by group rank at take time
};

/// Host-shared, subdomain-addressed particle checkpoints (stands in for
/// shared stable storage), the one place a run saves particles. Outside
/// crash mode nothing can tear a write, so every take rewrites generation 0
/// in place. In crash mode the store is double-buffered by sequence parity
/// so a write in progress never clobbers the last committed checkpoint, and
/// a checkpoint counts as committed only once the barrier after the shard
/// seals completes — otherwise survivors could agree on a sequence number
/// whose crashed writer left a missing or torn shard.
struct CheckpointStore {
  std::mutex mu;  ///< ranks on different workers write concurrently
  int committed_seq = -1;
  CkptBuffer buf[2];
  /// Per membership epoch: particles the survivors appended from dead
  /// owners' shards. Complete once the recovery's closing collective ends.
  std::map<int, std::uint64_t> restored;

  void reset() {
    committed_seq = -1;
    buf[0] = CkptBuffer{};
    buf[1] = CkptBuffer{};
    restored.clear();
  }
};

/// One bit flipped in one random field of one random particle — the host
/// memory corruption the transport checksums cannot see. Drawn from the
/// fault model's per-rank stream so runs stay reproducible.
void inject_memory_fault(sim::FaultModel& fm, int rank, ParticleArray& p) {
  if (p.empty()) return;
  const auto i = static_cast<std::size_t>(fm.draw_below(rank, p.size()));
  const auto field = fm.draw_below(rank, 6);
  double* fields[5] = {&p.x[i], &p.y[i], &p.ux[i], &p.uy[i], &p.uz[i]};
  if (field < 5) {
    auto* target = reinterpret_cast<std::byte*>(fields[field]);
    fm.flip_random_bit(rank, target, sizeof(double));
  } else {
    auto* target = reinterpret_cast<std::byte*>(&p.key[i]);
    fm.flip_random_bit(rank, target, sizeof(std::uint64_t));
  }
}

/// Last-resort repair when a violation is detected but rollback is
/// unavailable (no checkpoint, or the recovery budget is spent): clamp the
/// state back to validity so the run degrades instead of feeding corrupt
/// positions into the next scatter (whose float-to-int casts assume a
/// wrapped domain). A non-finite momentum component is zeroed, and so is a
/// whole momentum whose gamma overflows; positions are re-wrapped, with
/// values too large to wrap meaningfully reset to origin.
void scrub_particles(const sfc::IndexCache& keys, const mesh::GridDesc& grid,
                     ParticleArray& p) {
  const std::uint64_t stride = p.key_stride();
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!std::isfinite(p.ux[i])) p.ux[i] = 0.0;
    if (!std::isfinite(p.uy[i])) p.uy[i] = 0.0;
    if (!std::isfinite(p.uz[i])) p.uz[i] = 0.0;
    if (!std::isfinite(p.gamma(i))) p.ux[i] = p.uy[i] = p.uz[i] = 0.0;
    double x = p.x[i], y = p.y[i];
    if (!std::isfinite(x) || std::abs(x) > 64.0 * grid.lx) x = 0.0;
    if (!std::isfinite(y) || std::abs(y) > 64.0 * grid.ly) y = 0.0;
    p.x[i] = grid.wrap_x(x);
    p.y[i] = grid.wrap_y(y);
    // Preserve the species-in-key low bits; a corrupted key may carry a
    // bogus species, which the modulo wraps back into range.
    p.key[i] = stride == 1
                   ? core::key_of(keys, grid, p.x[i], p.y[i])
                   : core::encode_key(keys, grid, p.x[i], p.y[i], stride,
                                      p.key[i] % stride);
  }
}

/// run_pic's mover: independent partitioning with dynamic alignment. A
/// rank's particles are a contiguous range of curve keys, placed by a full
/// sample sort and pushed by the push kernel, which recomputes each key;
/// the redistribution policy decides when a redistribution realigns them
/// with the mesh. Boundary injection, validation with rollback,
/// checkpoints and fail-stop crash recovery belong here too.
class IndependentMover final : public ParticleMover {
public:
  IndependentMover(const RunSetup& run, const sfc::Curve& curve,
                   std::shared_ptr<const sfc::IndexCache> keys,
                   CheckpointStore& store, bool crash_mode, int world,
                   RankOutput& out)
      : run_(run),
        params_(run.params),
        vp_(run.params.validate),
        grid_(run.params.grid),
        curve_(curve),
        keys_(std::move(keys)),
        store_(store),
        crash_mode_(crash_mode),
        world_(world),
        out_(out),
        checker_(curve, grid_, vp_.invariants) {}

  double place(Comm& c, ParticleArray& mine) override {
    start();
    append_initial_slice(run_.global, c.rank(), c.size(), mine);

    // Initial distribution (full sample sort + balance).
    c.set_phase(Phase::kRedistribute);
    const double t0 = c.clock();
    partitioner_->assign_keys(c, mine);
    partitioner_->distribute(c, mine);
    c.set_phase(Phase::kOther);
    out_.init_seconds_global = c.allreduce_max(c.clock() - t0);
    policy_->notify_redistribution(-1, out_.init_seconds_global);
    const double placed = c.clock();
    if (c.rank() == 0)
      c.mark(trace::kMarkInit, -1, out_.init_seconds_global);

    if (vp_.check_every > 0) recount(c, mine);
    // Baseline checkpoint: the freshly balanced initial state. Crash mode
    // always keeps one so a failure is never unrecoverable.
    if (vp_.checkpoint_every > 0 || crash_mode_) take_checkpoint(c, mine, -1);
    return placed;
  }

  void begin_iteration(Comm& c, int iter, ParticleArray& mine,
                       LocalIter& rec) override {
    rec.crash_recovered = just_recovered_;
    just_recovered_ = false;
    t_iter_start_ = c.clock();
    if (!run_.sc.injector.enabled) return;

    // ---- Boundary injection ----
    // Every rank derives the identical batch from (seed, iteration) — no
    // communication — and keeps the particles whose key lands in its
    // partition range. Appending unsorted is fine: the array legitimately
    // unsorts between redistributions as the push updates keys in place.
    const auto batch =
        scenario::injector_batch(run_.sc, grid_, params_.init, iter);
    const std::uint64_t stride = mine.key_stride();
    for (const auto& src : batch) {
      auto r = src;
      r.key = stride == 1 ? core::key_of(*keys_, grid_, r.x, r.y)
                          : core::encode_key(*keys_, grid_, r.x, r.y,
                                             stride, r.key);
      if (partitioner_->owner_of(r.key) == c.rank()) {
        mine.push_back(r);
        ++rec.injected;
      }
    }
    c.charge_ops(batch.size());
    // The emitted count is globally known (= batch size), so the
    // conservation reference grows without a collective.
    if (vp_.check_every > 0)
      checker_.set_reference_count(checker_.reference_count() +
                                   batch.size());
  }

  void push(Comm& c, ParticleArray& mine, LocalIter& rec) override {
    const bool absorb_x = run_.sc.boundary == scenario::Boundary::kAbsorbX;
    const std::size_t n = mine.size();
    rec.absorbed = pic::push(grid_, run_.dt, absorb_x, *keys_, mine);
    c.charge(static_cast<double>(n) * params_.costs.push_per_particle *
             params_.machine.delta);
    // Absorption shrinks the conservation reference; the lost count is
    // agreed collectively.
    if (absorb_x && vp_.check_every > 0) {
      const auto lost = c.allreduce_sum<std::uint64_t>(rec.absorbed);
      checker_.set_reference_count(checker_.reference_count() - lost);
    }

    // Host-memory corruption the transport checksums cannot see: flip a
    // bit in local particle state. Detection is the checker's job. Fault
    // streams are keyed by world rank — a rank keeps its stream identity
    // across membership changes.
    if (params_.faults.memory_fault_prob > 0.0) {
      auto& fm = c.fault_model();
      if (fm.should_memory_fault(world_)) inject_memory_fault(fm, world_, mine);
    }
  }

  void realign(Comm& c, int iter, ParticleArray& mine,
               const MeshLayout& layout, LocalIter& rec) override {
    const int rank = c.rank();

    // ---- Iteration timing and redistribution decision ----
    const double loop = c.allreduce_max(c.clock() - t_iter_start_);
    rec.loop_seconds_global = loop;
    if (policy_->should_redistribute(iter, loop)) {
      if (rank == 0) c.mark(trace::kMarkRedistDecision, iter, loop);
      c.set_phase(Phase::kRedistribute);
      const double tr = c.clock();
      const auto rrep = partitioner_->redistribute(c, mine);
      c.set_phase(Phase::kOther);
      rec.redist_seconds_global = c.allreduce_max(c.clock() - tr);
      policy_->notify_redistribution(iter, rec.redist_seconds_global);
      rec.redistributed = true;
      rec.redist_sent = rrep.sent_particles;
      c.mark(trace::kMarkRedistSent, iter,
             static_cast<double>(rrep.sent_particles));
      if (rank == 0)
        c.mark(trace::kMarkRedistDone, iter, rec.redist_seconds_global);
    }

    // ---- Invariant check, rollback, checkpoint refresh ----
    bool checked_bad = false;
    if (vp_.check_every > 0 && (iter + 1) % vp_.check_every == 0) {
      double local_energy = -1.0;
      if (vp_.invariants.energy_factor > 0.0)
        local_energy = layout.field_energy() + mine.kinetic_energy();
      const auto report = checker_.check(
          c, mine, iter,
          rec.redistributed ? &partitioner_->rank_upper_bounds() : nullptr,
          local_energy);
      rec.violation_mask = report.mask;
      checked_bad = !report.ok();
      if (checked_bad && rank == 0)
        c.mark(trace::kMarkViolation, iter, static_cast<double>(report.mask));
      if (checked_bad && ckpt_seq_ >= 0 &&
          out_.recoveries < vp_.max_recoveries) {
        // Every rank saw the same OR-combined mask, so all of them take
        // this branch together: restore the last good checkpoint, whose
        // full redistribution re-enters a balanced state.
        c.set_phase(Phase::kRedistribute);
        const double tr = c.clock();
        restore(c, mine, ckpt_seq_);
        // Rollback rewinds injections/absorptions since the checkpoint;
        // re-anchor the conservation reference to the restored state.
        if (run_.sc.injector.enabled ||
            run_.sc.boundary == scenario::Boundary::kAbsorbX)
          recount(c, mine);
        c.set_phase(Phase::kOther);
        const double cost = c.allreduce_max(c.clock() - tr);
        policy_->notify_redistribution(iter, cost);
        rec.recovered = true;
        rec.redistributed = true;
        rec.redist_seconds_global += cost;
        ++out_.recoveries;
        if (rank == 0) c.mark(trace::kMarkRecovered, iter, cost);
      } else if (checked_bad) {
        // Rollback unavailable: repair in place so the run continues in a
        // degraded but well-defined state.
        scrub_particles(*keys_, grid_, mine);
        c.charge_ops(static_cast<std::uint64_t>(mine.size()));
      }
    }
    if (vp_.checkpoint_every > 0 && (iter + 1) % vp_.checkpoint_every == 0) {
      // With checks enabled, only refresh on an iteration whose check
      // just passed — a rollback target must never itself be corrupt.
      const bool checked_ok = vp_.check_every > 0 &&
                              (iter + 1) % vp_.check_every == 0 &&
                              !checked_bad && !rec.recovered;
      if (vp_.check_every == 0 || checked_ok) take_checkpoint(c, mine, iter);
    }
  }

  // Shrink-to-survivors recovery after a PeerFailedError.
  int recover(Comm& c, ParticleArray& mine) override {
    c.set_phase(Phase::kRedistribute);
    const sim::MembershipView view = c.agree_on_membership();
    for (const auto& cr : view.failed)
      pending_crash_vtime_ = std::min(pending_crash_vtime_, cr.vtime);
    const int rank = c.rank();

    // Survivors threw from different program points; align the shared
    // recovery counters before using them.
    out_.recoveries = c.allreduce_max(out_.recoveries);
    int rseq = -1, rit = -1;
    {
      std::lock_guard<std::mutex> lk(store_.mu);
      rseq = store_.committed_seq;
      if (rseq >= 0) rit = store_.buf[rseq & 1].iter;
    }
    rseq = c.allreduce_min(rseq);
    rit = c.allreduce_min(rit);
    ckpt_seq_ = rseq;
    start();

    // With no committed checkpoint (rseq < 0, so rit == -1) the loop
    // restarts from the initial conditions on the shrunken group: the
    // initial population is regenerated deterministically and nothing is
    // restored.
    const int resume = rit + 1;
    std::uint64_t lost = 0;
    if (rseq >= 0) {
      {
        std::lock_guard<std::mutex> lk(store_.mu);
        const auto& b = store_.buf[rseq & 1];
        for (int s = 0; s < b.nshards; ++s) {
          const auto& sh = b.shards[static_cast<std::size_t>(s)];
          if (!sh.valid)
            throw std::runtime_error(
                "checkpoint: committed shard is torn (seq " +
                std::to_string(rseq) + ", subdomain " + std::to_string(s) +
                ")");
          if (!std::binary_search(view.survivors.begin(),
                                  view.survivors.end(), sh.owner_world))
            lost += static_cast<std::uint64_t>(sh.recs.size());
        }
      }
      const std::uint64_t from_dead = restore(c, mine, rseq);
      {
        std::lock_guard<std::mutex> lk(store_.mu);
        store_.restored[view.epoch] += from_dead;
      }
      if (vp_.check_every > 0) recount(c, mine);
    }

    const double t_done = c.allreduce_max(c.clock());
    const double mttr = t_done - pending_crash_vtime_;
    pending_crash_vtime_ = std::numeric_limits<double>::infinity();
    // Every survivor's restore ended before the collective above did.
    std::uint64_t restored = 0;
    {
      std::lock_guard<std::mutex> lk(store_.mu);
      restored = store_.restored[view.epoch];
    }
    ++out_.crash_recoveries;
    out_.mttr_total += mttr;
    out_.crash_lost += lost;
    out_.crash_restored += restored;
    if (rank == 0) {
      c.mark(trace::kMarkCrashRecovered, resume, mttr);
      if (rseq >= 0) {
        c.mark(trace::kMarkCrashLost, resume, static_cast<double>(lost));
        c.mark(trace::kMarkCrashRestored, resume,
               static_cast<double>(restored));
      }
    }
    c.set_phase(Phase::kOther);
    // Fresh post-recovery baseline so a later crash cannot rewind past
    // this membership change.
    if (rseq >= 0) take_checkpoint(c, mine, rit);
    just_recovered_ = true;
    return rseq >= 0 ? resume : -1;
  }

  std::size_t scratch_bytes() const override {
    return partitioner_->scratch_bytes();
  }

private:
  /// A fresh partitioner and policy, for a new group.
  void start() {
    partitioner_.emplace(curve_, grid_, keys_, params_.partitioner);
    policy_ = core::make_policy(params_.policy);
  }

  /// Anchor the conservation reference to the group's particle count.
  void recount(Comm& c, const ParticleArray& mine) {
    checker_.set_reference_count(c.allreduce_sum<std::uint64_t>(
        static_cast<std::uint64_t>(mine.size())));
  }

  // Take a checkpoint of `mine` as of completed iteration `iter_done`
  // (-1 = post-init baseline): write this rank's shard of the store.
  // Outside crash mode that rewrites generation 0 in place; in crash mode
  // it writes the next sequence's buffer, sealed and committed
  // collectively.
  void take_checkpoint(Comm& c, const ParticleArray& mine, int iter_done) {
    c.charge_ops(kCheckpointOpsPerParticle * mine.size());
    const int seq = crash_mode_ ? ckpt_seq_ + 1 : 0;
    const int p = c.size();
    const int grank = c.rank();
    {
      std::lock_guard<std::mutex> lk(store_.mu);
      auto& b = store_.buf[seq & 1];
      // A take torn by a crash left its number to the survivors' next
      // take, made by a smaller group: a group-size change starts the
      // buffer afresh too, or the torn take's shards past p survive.
      if (b.seq != seq || b.nshards != p) {
        b.seq = seq;
        b.iter = iter_done;
        b.nshards = p;
        b.shards.assign(static_cast<std::size_t>(p), CkptShard{});
      }
      auto& sh = b.shards[static_cast<std::size_t>(grank)];
      sh.valid = !crash_mode_;
      sh.owner_world = world_;
      sh.recs.clear();
      sh.recs.reserve(mine.size());
      for (std::size_t i = 0; i < mine.size(); ++i)
        sh.recs.push_back(mine.rec(i));
    }
    if (crash_mode_) {
      // Serialization cost — and a fail-stop point: a crash here leaves
      // the shard unsealed (valid == false), the torn write the loader
      // rejects.
      c.charge_ops(static_cast<std::uint64_t>(mine.size()));
      {
        std::lock_guard<std::mutex> lk(store_.mu);
        store_.buf[seq & 1].shards[static_cast<std::size_t>(grank)].valid =
            true;
      }
      // Commit is collective. Without this barrier, survivors could all
      // be past their own seals while the crashed rank was still
      // mid-write: they would agree on `seq` as restorable even though
      // one shard is torn. Completing the barrier proves every shard was
      // sealed first.
      c.barrier();
      {
        std::lock_guard<std::mutex> lk(store_.mu);
        if (store_.committed_seq < seq) store_.committed_seq = seq;
      }
    }
    ckpt_seq_ = seq;
  }

  // Restore take `seq` over the current group: reload every shard s with
  // s % p == group rank, then re-partition. Shards are addressed by
  // subdomain, not by rank, so a dead owner's particles come back on
  // whichever survivor the round-robin assigns them to; in a rollback the
  // group is unchanged and each rank gets back its own shard. Returns the
  // particles appended from shards whose owner left the group.
  std::uint64_t restore(Comm& c, ParticleArray& mine, int seq) {
    const int p = c.size();
    const std::vector<int> members = c.group();
    std::uint64_t from_dead = 0;
    mine.clear();
    {
      std::lock_guard<std::mutex> lk(store_.mu);
      const auto& b = store_.buf[seq & 1];
      for (int s = c.rank(); s < b.nshards; s += p) {
        const auto& sh = b.shards[static_cast<std::size_t>(s)];
        mine.reserve(mine.size() + sh.recs.size());
        for (const auto& r : sh.recs) mine.push_back(r);
        if (!std::binary_search(members.begin(), members.end(),
                                sh.owner_world))
          from_dead += static_cast<std::uint64_t>(sh.recs.size());
      }
    }
    c.charge_ops(kCheckpointOpsPerParticle * mine.size());
    partitioner_->assign_keys(c, mine);
    partitioner_->distribute(c, mine);
    return from_dead;
  }

  const RunSetup& run_;
  const PicParams& params_;
  const ValidationParams& vp_;
  const mesh::GridDesc grid_;
  const sfc::Curve& curve_;
  const std::shared_ptr<const sfc::IndexCache> keys_;
  CheckpointStore& store_;
  const bool crash_mode_;
  const int world_;  ///< keys the fault streams and the checkpoint shards
  RankOutput& out_;
  core::InvariantChecker checker_;
  std::optional<ParticlePartitioner> partitioner_;
  std::unique_ptr<core::RedistributionPolicy> policy_;
  int ckpt_seq_ = -1;  ///< last committed sequence this rank knows about
  double pending_crash_vtime_ = std::numeric_limits<double>::infinity();
  bool just_recovered_ = false;
  double t_iter_start_ = 0.0;
};

}  // namespace

PicResult run_pic(const PicParams& params) {
  const RunSetup run(params, "run_pic");
  const mesh::GridDesc grid = params.grid;
  const auto curve = sfc::make_curve(params.curve, grid.nx, grid.ny);
  // Cell -> curve-index table, evaluated once and shared read-only by all
  // ranks and their partitioners; replaces per-particle curve evaluations
  // on the key, push and scrub paths (DESIGN.md §10, §17).
  const auto key_table =
      std::make_shared<const sfc::IndexCache>(*curve, grid.nx, grid.ny);

  // Fail-stop crash configuration: params plus the PICPAR_CRASH_* overrides.
  // Env entries aimed at ranks this run does not have are dropped so one
  // schedule can serve sweeps over different rank counts.
  Driver driver;
  driver.faults = params.faults;
  sim::FaultConfig& faults = driver.faults;
  apply_crash_env(faults);
  faults.crash_schedule.erase(
      std::remove_if(faults.crash_schedule.begin(),
                     faults.crash_schedule.end(),
                     [&](const sim::CrashPoint& cp) {
                       return cp.rank >= params.nranks;
                     }),
      faults.crash_schedule.end());
  const bool crash_mode = faults.any_crash_faults();

  CheckpointStore store;
  PartitionTable partitions;
  driver.layout = [&](Comm& c) {
    return distributed_layout(run, partitions.get(params, *curve, c.size()),
                              c.rank());
  };
  driver.mover = [&](Comm& c, RankOutput& out) {
    return std::make_unique<IndependentMover>(
        run, *curve, key_table, store, crash_mode, c.world_rank(), out);
  };
  driver.reset = [&] { store.reset(); };
  return run_stepper(run, driver);
}

}  // namespace picpar::pic
