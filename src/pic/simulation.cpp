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

namespace {

/// Abstract ops charged per particle copied into or out of a checkpoint.
constexpr std::uint64_t kCheckpointOpsPerParticle = 2;

/// Per-rank, per-iteration raw measurements; merged after the run.
struct LocalIter {
  double clock_end = 0.0;
  double loop_seconds_global = 0.0;
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

/// Everything a rank's subdomain view depends on the group size: grid
/// partition (shared, see PartitionTable), local grid, fields, solvers,
/// partitioner, ghost tables. Rebuilt in place (std::optional::emplace)
/// whenever membership changes — the members reference their siblings, so
/// the object is never moved.
struct Domain {
  const GridPartition& part;
  LocalGrid lg;
  FieldState f;
  mesh::MaxwellSolver maxwell;
  mesh::PoissonSolver poisson;
  std::vector<double> phi;
  ParticlePartitioner partitioner;
  GhostExchange ghosts;

  Domain(const PicParams& params, const GridPartition& partition,
         const sfc::Curve& curve,
         std::shared_ptr<const sfc::IndexCache> keys, double dt, int grank)
      : part(partition),
        lg(part, grank),
        f(lg),
        maxwell(lg, dt),
        poisson(lg),
        phi(lg.make_field()),
        partitioner(curve, params.grid, std::move(keys), params.partitioner),
        ghosts(lg, params.dedup) {}
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

}  // namespace

PicResult run_pic(const PicParams& params) {
  if (params.init.total == 0)
    throw std::invalid_argument("run_pic: init.total must be > 0");
  if (params.iterations < 0)
    throw std::invalid_argument("run_pic: iterations must be >= 0");

  const mesh::GridDesc grid = params.grid;
  const auto curve = sfc::make_curve(params.curve, grid.nx, grid.ny);
  // Cell -> curve-index table, evaluated once and shared read-only by all
  // ranks and their partitioners; replaces per-particle curve evaluations
  // on the key, push and scrub paths (DESIGN.md §10, §17).
  const auto key_table =
      std::make_shared<const sfc::IndexCache>(*curve, grid.nx, grid.ny);
  const sfc::IndexCache& key_cache = *key_table;

  // Unknown scenario names throw before any work happens.
  const scenario::Scenario& sc = scenario::get_scenario(params.scenario);
  const bool inject_on = sc.injector.enabled;
  const bool absorb_x = sc.boundary == scenario::Boundary::kAbsorbX;

  // The global particle population; every rank slices it identically.
  const ParticleArray global = sc.loadout(grid, params.init);
  const double dt =
      params.dt > 0.0 ? params.dt : mesh::MaxwellSolver::max_dt(grid);

  const double delta = params.machine.delta;
  const PhaseCosts& pc = params.costs;

  // Fail-stop crash configuration: params plus the PICPAR_CRASH_* overrides.
  // Env entries aimed at ranks this run does not have are dropped so one
  // schedule can serve sweeps over different rank counts.
  sim::FaultConfig faults = params.faults;
  apply_crash_env(faults);
  faults.crash_schedule.erase(
      std::remove_if(faults.crash_schedule.begin(),
                     faults.crash_schedule.end(),
                     [&](const sim::CrashPoint& cp) {
                       return cp.rank >= params.nranks;
                     }),
      faults.crash_schedule.end());
  const bool crash_mode = faults.any_crash_faults();

  std::vector<RankOutput> outputs(static_cast<std::size_t>(params.nranks));
  // Energy history of the run, written by whichever rank is group rank 0.
  std::vector<EnergySample> energy;
  CheckpointStore store;
  PartitionTable partitions;

  auto program = [&](Comm& comm) {
    // The world rank is this thread's permanent identity: it indexes host
    // outputs and the fault streams. comm.rank()/comm.size() are group
    // coordinates that shrink after a recovery, so they are re-read after
    // every membership change instead of being cached up front.
    const int world = comm.world_rank();
    auto& out = outputs[static_cast<std::size_t>(world)];
    out.iters.reserve(static_cast<std::size_t>(params.iterations));

    const ValidationParams& vp = params.validate;
    core::InvariantChecker checker(*curve, grid, vp.invariants);

    std::optional<Domain> dom;
    std::unique_ptr<core::RedistributionPolicy> policy;
    ParticleArray mine(global.species());
    int ckpt_seq = -1;  ///< last committed sequence this rank knows about
    int recoveries = 0;
    double pending_crash_vtime = std::numeric_limits<double>::infinity();
    bool just_recovered = false;
    // Per-subsystem peaks behind the mem.* budget breakdown: transport
    // tables inside the machine, ghost-exchange tables, sort scratch. All
    // three are deterministic functions of the rank's history, so the marks
    // (and the per-rank CSV they feed) are mode-independent.
    std::size_t mem_machine = 0;
    std::size_t mem_exchange = 0;
    std::size_t mem_sort = 0;

    // Take a checkpoint of `mine` as of completed iteration `iter_done`
    // (-1 = post-init baseline): write this rank's shard of the store.
    // Outside crash mode that rewrites generation 0 in place; in crash mode
    // it writes the next sequence's buffer, sealed and committed
    // collectively.
    const auto take_checkpoint = [&](Comm& c, int iter_done) {
      c.charge_ops(kCheckpointOpsPerParticle * mine.size());
      const int seq = crash_mode ? ckpt_seq + 1 : 0;
      const int p = c.size();
      const int grank = c.rank();
      {
        std::lock_guard<std::mutex> lk(store.mu);
        auto& b = store.buf[seq & 1];
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
        sh.valid = !crash_mode;
        sh.owner_world = world;
        sh.recs.clear();
        sh.recs.reserve(mine.size());
        for (std::size_t i = 0; i < mine.size(); ++i)
          sh.recs.push_back(mine.rec(i));
      }
      if (crash_mode) {
        // Serialization cost — and a fail-stop point: a crash here leaves
        // the shard unsealed (valid == false), the torn write the loader
        // rejects.
        c.charge_ops(static_cast<std::uint64_t>(mine.size()));
        {
          std::lock_guard<std::mutex> lk(store.mu);
          store.buf[seq & 1].shards[static_cast<std::size_t>(grank)].valid =
              true;
        }
        // Commit is collective. Without this barrier, survivors could all
        // be past their own seals while the crashed rank was still
        // mid-write: they would agree on `seq` as restorable even though
        // one shard is torn. Completing the barrier proves every shard was
        // sealed first.
        c.barrier();
        {
          std::lock_guard<std::mutex> lk(store.mu);
          if (store.committed_seq < seq) store.committed_seq = seq;
        }
      }
      ckpt_seq = seq;
    };

    // Restore take `seq` over the current group: reload every shard s with
    // s % p == group rank, then re-partition. Shards are addressed by
    // subdomain, not by rank, so a dead owner's particles come back on
    // whichever survivor the round-robin assigns them to; in a rollback the
    // group is unchanged and each rank gets back its own shard. Returns the
    // particles appended from shards whose owner left the group.
    const auto restore = [&](Comm& c, int seq) {
      const int p = c.size();
      const std::vector<int> members = c.group();
      std::uint64_t from_dead = 0;
      mine.clear();
      {
        std::lock_guard<std::mutex> lk(store.mu);
        const auto& b = store.buf[seq & 1];
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
      dom->partitioner.assign_keys(c, mine);
      dom->partitioner.distribute(c, mine);
      return from_dead;
    };

    // (Re)initialize the domain for the current group and slice + balance
    // the initial population. Runs at start and again if a crash precedes
    // the first committed checkpoint.
    const auto do_init = [&](Comm& c) {
      const int rank = c.rank();
      const int p = c.size();
      dom.emplace(params, partitions.get(params, *curve, p), *curve,
                  key_table, dt, rank);
      scenario::apply_field_seed(sc.field_seed, grid, dom->lg, dom->f);
      policy = core::make_policy(params.policy);
      out.iters.clear();

      mine.clear();
      append_initial_slice(global, rank, p, mine);

      // Initial distribution (full sample sort + balance).
      c.set_phase(Phase::kRedistribute);
      const double t0 = c.clock();
      dom->partitioner.assign_keys(c, mine);
      dom->partitioner.distribute(c, mine);
      c.set_phase(Phase::kOther);
      out.init_seconds_global = c.allreduce_max(c.clock() - t0);
      policy->notify_redistribution(-1, out.init_seconds_global);
      out.clock_after_init = c.clock();
      if (rank == 0) c.mark(trace::kMarkInit, -1, out.init_seconds_global);

      if (vp.check_every > 0)
        checker.set_reference_count(c.allreduce_sum<std::uint64_t>(
            static_cast<std::uint64_t>(mine.size())));
      // Baseline checkpoint: the freshly balanced initial state. Crash mode
      // always keeps one so a failure is never unrecoverable.
      if (vp.checkpoint_every > 0 || crash_mode) take_checkpoint(c, -1);
    };

    // Shrink-to-survivors recovery after a PeerFailedError. Returns the
    // iteration to resume at, or -1 when no committed checkpoint exists and
    // the caller must re-run do_init on the shrunken group.
    const auto do_recover = [&](Comm& c) -> int {
      c.set_phase(Phase::kRedistribute);
      const sim::MembershipView view = c.agree_on_membership();
      for (const auto& cr : view.failed)
        pending_crash_vtime = std::min(pending_crash_vtime, cr.vtime);
      const int rank = c.rank();
      const int p = c.size();

      // Survivors threw from different program points; align the shared
      // recovery counters before using them.
      recoveries = c.allreduce_max(recoveries);
      int rseq = -1, rit = -1;
      {
        std::lock_guard<std::mutex> lk(store.mu);
        rseq = store.committed_seq;
        if (rseq >= 0) rit = store.buf[rseq & 1].iter;
      }
      rseq = c.allreduce_min(rseq);
      rit = c.allreduce_min(rit);
      ckpt_seq = rseq;

      dom.emplace(params, partitions.get(params, *curve, p), *curve,
                  key_table, dt, rank);
      scenario::apply_field_seed(sc.field_seed, grid, dom->lg, dom->f);
      policy = core::make_policy(params.policy);

      // With no committed checkpoint (rseq < 0, so rit == -1) the caller
      // restarts from the initial conditions on the shrunken group: the
      // initial population is regenerated deterministically and nothing
      // is restored.
      const int resume = rit + 1;
      std::uint64_t lost = 0;
      if (rseq >= 0) {
        {
          std::lock_guard<std::mutex> lk(store.mu);
          const auto& b = store.buf[rseq & 1];
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
        const std::uint64_t from_dead = restore(c, rseq);
        {
          std::lock_guard<std::mutex> lk(store.mu);
          store.restored[view.epoch] += from_dead;
        }
        if (vp.check_every > 0)
          checker.set_reference_count(c.allreduce_sum<std::uint64_t>(
              static_cast<std::uint64_t>(mine.size())));
        // Iterations after the checkpoint are re-run: truncate this rank's
        // history back to the restore point.
        if (out.iters.size() > static_cast<std::size_t>(resume))
          out.iters.resize(static_cast<std::size_t>(resume));
      }
      if (rank == 0)
        while (!energy.empty() && energy.back().iter > rit) energy.pop_back();

      const double t_done = c.allreduce_max(c.clock());
      const double mttr = t_done - pending_crash_vtime;
      pending_crash_vtime = std::numeric_limits<double>::infinity();
      // Every survivor's restore ended before the collective above did.
      std::uint64_t restored = 0;
      {
        std::lock_guard<std::mutex> lk(store.mu);
        restored = store.restored[view.epoch];
      }
      ++out.crash_recoveries;
      out.mttr_total += mttr;
      out.crash_lost += lost;
      out.crash_restored += restored;
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
      if (rseq >= 0) take_checkpoint(c, rit);
      just_recovered = true;
      return rseq >= 0 ? resume : -1;
    };

    const auto do_iter = [&](Comm& c, int iter) {
      const int rank = c.rank();
      LocalGrid& lg = dom->lg;
      FieldState& f = dom->f;
      GhostExchange& ghosts = dom->ghosts;

      LocalIter rec;
      rec.crash_recovered = just_recovered;
      just_recovered = false;
      const double t_iter_start = c.clock();

      // ---- Boundary injection ----
      // Every rank derives the identical batch from (seed, iteration) — no
      // communication — and keeps the particles whose key lands in its
      // partition range. Appending unsorted is fine: the array legitimately
      // unsorts between redistributions as the push updates keys in place.
      if (inject_on) {
        const auto batch =
            scenario::injector_batch(sc, grid, params.init, iter);
        const std::uint64_t stride = mine.key_stride();
        for (const auto& src : batch) {
          auto r = src;
          r.key = stride == 1
                      ? core::key_of(key_cache, grid, r.x, r.y)
                      : core::encode_key(key_cache, grid, r.x, r.y, stride,
                                         r.key);
          if (dom->partitioner.owner_of(r.key) == rank) {
            mine.push_back(r);
            ++rec.injected;
          }
        }
        c.charge_ops(batch.size());
        // The emitted count is globally known (= batch size), so the
        // conservation reference grows without a collective.
        if (vp.check_every > 0)
          checker.set_reference_count(checker.reference_count() +
                                      batch.size());
      }

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
      ghosts.flush_scatter(c, f);
      {
        const auto d = c.stats().diff(stats_before).phase(Phase::kScatter);
        rec.scatter_sent_bytes = d.bytes_sent;
        rec.scatter_recv_bytes = d.bytes_recv;
        rec.scatter_sent_msgs = d.msgs_sent;
        rec.scatter_recv_msgs = d.msgs_recv;
      }

      // ---- Field solve phase ----
      c.set_phase(Phase::kFieldSolve);
      switch (params.solver) {
        case FieldSolveKind::kMaxwell:
          dom->maxwell.step(c, f);
          c.charge(static_cast<double>(lg.owned()) * pc.field_per_node *
                   delta);
          break;
        case FieldSolveKind::kPoisson: {
          const auto pr = dom->poisson.solve(c, f.rho, dom->phi);
          dom->poisson.gradient(dom->phi, f.ex, f.ey);
          c.charge(static_cast<double>(lg.owned()) * 0.25 *
                   pc.field_per_node * delta *
                   static_cast<double>(pr.iterations) / 10.0);
          break;
        }
        case FieldSolveKind::kNone:
          break;
      }

      // ---- Gather phase ----
      c.set_phase(Phase::kGather);
      ghosts.fetch_fields(c, f);
      gather_kick(grid, dt, sc.driver.enabled ? &sc.driver : nullptr,
                  static_cast<double>(iter) * dt, mine, f, ghosts);
      c.charge(static_cast<double>(4 * n) * pc.gather_per_vertex * delta);

      // ---- Push phase ----
      c.set_phase(Phase::kPush);
      rec.absorbed = push(grid, dt, absorb_x, key_cache, mine);
      c.charge(static_cast<double>(n) * pc.push_per_particle * delta);
      // Absorption shrinks the conservation reference; the lost count is
      // agreed collectively.
      if (absorb_x && vp.check_every > 0) {
        const auto lost = c.allreduce_sum<std::uint64_t>(rec.absorbed);
        checker.set_reference_count(checker.reference_count() - lost);
      }

      // Host-memory corruption the transport checksums cannot see: flip a
      // bit in local particle state. Detection is the checker's job. Fault
      // streams are keyed by world rank — a rank keeps its stream identity
      // across membership changes.
      if (params.faults.memory_fault_prob > 0.0) {
        auto& fm = c.fault_model();
        if (fm.should_memory_fault(world))
          inject_memory_fault(fm, world, mine);
      }

      // ---- Iteration timing and redistribution decision ----
      c.set_phase(Phase::kOther);
      rec.loop_seconds_global = c.allreduce_max(c.clock() - t_iter_start);

      if (policy->should_redistribute(iter, rec.loop_seconds_global)) {
        if (rank == 0)
          c.mark(trace::kMarkRedistDecision, iter, rec.loop_seconds_global);
        c.set_phase(Phase::kRedistribute);
        const double tr = c.clock();
        const auto rrep = dom->partitioner.redistribute(c, mine);
        c.set_phase(Phase::kOther);
        rec.redist_seconds_global = c.allreduce_max(c.clock() - tr);
        policy->notify_redistribution(iter, rec.redist_seconds_global);
        rec.redistributed = true;
        rec.redist_sent = rrep.sent_particles;
        c.mark(trace::kMarkRedistSent, iter,
               static_cast<double>(rrep.sent_particles));
        if (rank == 0)
          c.mark(trace::kMarkRedistDone, iter, rec.redist_seconds_global);
      }

      // ---- Invariant check, rollback, checkpoint refresh ----
      bool checked_bad = false;
      if (vp.check_every > 0 && (iter + 1) % vp.check_every == 0) {
        double local_energy = -1.0;
        if (vp.invariants.energy_factor > 0.0)
          local_energy = f.energy(lg) + mine.kinetic_energy();
        const auto report = checker.check(
            c, mine, iter,
            rec.redistributed ? &dom->partitioner.rank_upper_bounds()
                              : nullptr,
            local_energy);
        rec.violation_mask = report.mask;
        checked_bad = !report.ok();
        if (checked_bad && rank == 0)
          c.mark(trace::kMarkViolation, iter,
                 static_cast<double>(report.mask));
        if (checked_bad && ckpt_seq >= 0 && recoveries < vp.max_recoveries) {
          // Every rank saw the same OR-combined mask, so all of them take
          // this branch together: restore the last good checkpoint, whose
          // full redistribution re-enters a balanced state.
          c.set_phase(Phase::kRedistribute);
          const double tr = c.clock();
          restore(c, ckpt_seq);
          // Rollback rewinds injections/absorptions since the checkpoint;
          // re-anchor the conservation reference to the restored state.
          if (inject_on || absorb_x)
            checker.set_reference_count(c.allreduce_sum<std::uint64_t>(
                static_cast<std::uint64_t>(mine.size())));
          c.set_phase(Phase::kOther);
          const double cost = c.allreduce_max(c.clock() - tr);
          policy->notify_redistribution(iter, cost);
          rec.recovered = true;
          rec.redistributed = true;
          rec.redist_seconds_global += cost;
          ++recoveries;
          if (rank == 0) c.mark(trace::kMarkRecovered, iter, cost);
        } else if (checked_bad) {
          // Rollback unavailable: repair in place so the run continues in a
          // degraded but well-defined state.
          scrub_particles(key_cache, grid, mine);
          c.charge_ops(static_cast<std::uint64_t>(mine.size()));
        }
      }
      if (vp.checkpoint_every > 0 &&
          (iter + 1) % vp.checkpoint_every == 0) {
        // With checks enabled, only refresh on an iteration whose check
        // just passed — a rollback target must never itself be corrupt.
        const bool checked_ok =
            vp.check_every > 0 && (iter + 1) % vp.check_every == 0 &&
            !checked_bad && !rec.recovered;
        if (vp.check_every == 0 || checked_ok) take_checkpoint(c, iter);
      }
      // Per-iteration trace samples (free without an observer): local
      // particle count on every rank, global loop time on group rank 0.
      c.mark(trace::kMarkParticles, iter, static_cast<double>(mine.size()));
      if (rank == 0) c.mark(trace::kMarkIter, iter, rec.loop_seconds_global);
      rec.clock_end = c.clock();
      out.iters.push_back(rec);

      mem_machine = std::max(mem_machine, c.memory_bytes());
      mem_exchange = std::max(mem_exchange, ghosts.memory_bytes());
      mem_sort = std::max(mem_sort, dom->partitioner.scratch_bytes());

      if (params.sample_energy_every > 0 &&
          (iter + 1) % params.sample_energy_every == 0) {
        const double fe = c.allreduce_sum(f.energy(lg));
        const double ke = c.allreduce_sum(mine.kinetic_energy());
        if (rank == 0) energy.push_back({iter, fe, ke});
      }
    };

    // ---- Main loop with fail-stop recovery ----
    // A crash surfaces on survivors as PeerFailedError thrown from whatever
    // communication they were blocked in. Recovery itself may be interrupted
    // by further crashes (a cascade); the loop simply re-enters do_recover,
    // whose membership agreement folds in the newly failed ranks.
    bool initialized = false;
    bool need_recover = false;
    int iter = 0;
    for (;;) {
      try {
        if (need_recover) {
          const int resume = do_recover(comm);
          need_recover = false;
          if (resume < 0) {
            initialized = false;
          } else {
            iter = resume;
          }
        }
        if (!initialized) {
          do_init(comm);
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

    out.final_particles = static_cast<std::uint64_t>(mine.size());
    out.recoveries = recoveries;

    // Final physics diagnostics (local sums; merged by the aggregator).
    out.field_energy = dom->f.energy(dom->lg);
    out.kinetic_energy = mine.kinetic_energy();
    // picpar-lint: allow(float-reduction-order) fixed local-index sum
    double charge_sum = 0.0;
    for (std::size_t l = 0; l < dom->lg.owned(); ++l)
      charge_sum += dom->f.rho[l];
    out.total_charge = charge_sum * grid.dx() * grid.dy();
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

  sim::Machine machine(params.nranks, params.machine, faults);

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
  sim::RunResult run;
  if (analyze_on && params.analyze.audit_determinism) {
    // Per-rank outputs, the energy history and the checkpoint store are
    // host-side state the program accumulates into, so they reset between
    // the two runs; the result is the second run's.
    auto audit = analysis::audit_determinism(
        machine, observers, analyzer, program, [&] {
          for (auto& o : outputs) o = RankOutput{};
          energy.clear();
          store.reset();
        });
    audit_state = audit.deterministic() ? 1 : 0;
    run = std::move(audit.run);
  } else {
    run = machine.run(program);
  }

  // ---- Aggregate ----
  PicResult result;
  result.machine = std::move(run);
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
    if (ref && static_cast<std::size_t>(i) < ref->iters.size())
      rec.loop_seconds =
          ref->iters[static_cast<std::size_t>(i)].loop_seconds_global;
    rec.exec_seconds = end - prev_end;
    prev_end = end;
    if (rec.redistributed) {
      ++result.redistributions;
      // picpar-lint: allow(float-reduction-order) iteration-order sum
      result.redist_seconds_total += rec.redist_seconds;
    }
    if (rec.violation_mask != 0) ++result.violation_iterations;
  }

  result.initial_particles = static_cast<std::uint64_t>(global.size());
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

}  // namespace picpar::pic
