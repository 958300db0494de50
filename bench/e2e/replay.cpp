#include "replay.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "core/ghost_exchange.hpp"
#include "core/indexing.hpp"
#include "core/partitioner.hpp"
#include "core/policy.hpp"
#include "mesh/local_grid.hpp"
#include "mesh/maxwell.hpp"
#include "mesh/partition.hpp"
#include "mesh/poisson.hpp"
#include "particles/interpolate.hpp"
#include "particles/pusher.hpp"
#include "scenario/scenario.hpp"
#include "sfc/index_cache.hpp"
#include "sim/comm.hpp"

namespace picpar::bench_e2e {

using particles::ParticleArray;
using sim::Phase;

namespace {

void check_supported(const pic::PicParams& params) {
  const auto refuse = [](const std::string& what) {
    throw std::invalid_argument("replay: " + what +
                                " is not supported by the replay stepper");
  };
  if (params.init.total == 0) refuse("init.total == 0");
  if (params.iterations < 0) refuse("a negative iteration count");
  if (params.scenario.empty()) refuse("the legacy dist path (no scenario)");
  const auto& sc = scenario::get_scenario(params.scenario);
  if (sc.driver.enabled) refuse("a scenario driver field");
  if (sc.field_seed.enabled) refuse("a scenario field seed");
  if (params.solver != pic::FieldSolveKind::kMaxwell)
    refuse("a solver other than maxwell");
  if (params.grid_decomp != pic::GridDecomp::kCurve)
    refuse("block grid decomposition");
  if (params.faults.any()) refuse("fault injection");
  if (params.validate.enabled()) refuse("validation or checkpointing");
  if (params.analyze.enabled || params.analyze.audit_determinism)
    refuse("the analyzer");
  if (params.trace.on()) refuse("the program-side tracer");
  if (params.exec.parallel) refuse("the parallel engine");
  if (params.sample_energy_every > 0) refuse("energy sampling");
}

/// The per-rank subdomain view, built exactly as run_pic builds its own
/// (Poisson members included, so set-up cost matches). Members reference
/// their siblings, so it is constructed in place and never moved.
struct Domain {
  mesh::GridPartition part;
  mesh::LocalGrid lg;
  mesh::FieldState f;
  mesh::MaxwellSolver maxwell;
  mesh::PoissonSolver poisson;
  std::vector<double> phi;
  core::ParticlePartitioner partitioner;
  core::GhostExchange ghosts;

  Domain(const pic::PicParams& params, const mesh::GridDesc& grid,
         const sfc::Curve& curve, double dt, int p, int rank)
      : part(mesh::GridPartition::curve(grid, p, curve)),
        lg(part, rank),
        f(lg),
        maxwell(lg, dt),
        poisson(lg),
        phi(lg.make_field()),
        partitioner(curve, grid, params.partitioner),
        ghosts(lg, params.dedup) {}
};

struct RankOut {
  double field_energy = 0.0;
  double kinetic_energy = 0.0;
  std::uint64_t final_particles = 0;
  std::uint64_t injected = 0;
  std::uint64_t absorbed = 0;
  std::vector<char> redistributed;
  std::uint64_t ghost_entries = 0;
  std::uint64_t foreign_touches = 0;
  std::uint64_t redist_moved = 0;
  std::uint64_t redist_present = 0;
};

}  // namespace

std::size_t log_capacity(const pic::PicParams& params) {
  // About 100 events per rank-iteration (a dozen spans, five phase
  // switches, ghost and allreduce traffic) plus set-up.
  return static_cast<std::size_t>(params.nranks) *
             (static_cast<std::size_t>(params.iterations) * 100 + 256) +
         64;
}

ReplayResult replay(const pic::PicParams& params, SpanLog& log) {
  check_supported(params);
  constexpr int kMain = SpanLog::kMain;
  log.instant(kMain);

  const mesh::GridDesc grid = params.grid;
  std::unique_ptr<sfc::Curve> curve;
  std::optional<sfc::IndexCache> key_cache;
  {
    Span s(log, kMain, Layer::kDomainBuild);
    curve = sfc::make_curve(params.curve, grid.nx, grid.ny);
    key_cache.emplace(*curve, grid.nx, grid.ny);
  }
  const scenario::Scenario& sc = scenario::get_scenario(params.scenario);
  const bool inject_on = sc.injector.enabled;
  const bool absorb_x = sc.boundary == scenario::Boundary::kAbsorbX;
  const ParticleArray global = [&] {
    Span s(log, kMain, Layer::kLoadout);
    return sc.loadout(grid, params.init);
  }();
  const double dt =
      params.dt > 0.0 ? params.dt : mesh::MaxwellSolver::max_dt(grid);
  const double delta = params.machine.delta;
  const pic::PhaseCosts& pc = params.costs;
  const double inv_cell = 1.0 / (grid.dx() * grid.dy());

  std::vector<RankOut> outputs(static_cast<std::size_t>(params.nranks));

  auto program = [&](sim::Comm& c) {
    const int rank = c.rank();
    const int p = c.size();
    auto& out = outputs[static_cast<std::size_t>(rank)];
    out.redistributed.assign(static_cast<std::size_t>(params.iterations), 0);
    std::optional<Domain> dom;
    std::unique_ptr<core::RedistributionPolicy> policy;
    ParticleArray mine(global.species());

    {
      Span init(log, rank, Layer::kSetupInit);
      {
        Span s(log, rank, Layer::kDomainBuild);
        dom.emplace(params, grid, *curve, dt, p, rank);
        policy = core::make_policy(params.policy);
      }
      // Initial slice: equal contiguous blocks of the generated population.
      const auto total = static_cast<std::uint64_t>(global.size());
      const std::uint64_t b = static_cast<std::uint64_t>(rank) * total /
                              static_cast<std::uint64_t>(p);
      const std::uint64_t e = static_cast<std::uint64_t>(rank + 1) * total /
                              static_cast<std::uint64_t>(p);
      mine.reserve(static_cast<std::size_t>(e - b));
      for (std::uint64_t i = b; i < e; ++i)
        mine.push_back(global.rec(static_cast<std::size_t>(i)));

      c.set_phase(Phase::kRedistribute);
      const double t0 = c.clock();
      {
        Span s(log, rank, Layer::kDistribute);
        dom->partitioner.assign_keys(c, mine);
        dom->partitioner.distribute(c, mine);
      }
      c.set_phase(Phase::kOther);
      double init_seconds = 0.0;
      {
        Span s(log, rank, Layer::kCollective);
        init_seconds = c.allreduce_max(c.clock() - t0);
      }
      policy->notify_redistribution(-1, init_seconds);
    }

    for (int iter = 0; iter < params.iterations; ++iter) {
      Span it(log, rank, Layer::kIteration, iter);
      const double q = mine.charge();
      const double m = mine.mass();
      const bool multi = mine.nspecies() > 1;
      mesh::LocalGrid& lg = dom->lg;
      mesh::FieldState& f = dom->f;
      core::GhostExchange& ghosts = dom->ghosts;
      const double t_iter_start = c.clock();

      {
        Span s(log, rank, Layer::kInject);
        if (inject_on) {
          const auto batch =
              scenario::injector_batch(sc, grid, params.init, iter);
          const std::uint64_t stride = mine.key_stride();
          for (const auto& src : batch) {
            auto r = src;
            r.key = stride == 1
                        ? core::key_of(*key_cache, grid, r.x, r.y)
                        : core::encode_key(*key_cache, grid, r.x, r.y, stride,
                                           r.key);
            if (dom->partitioner.owner_of(r.key) == rank) {
              mine.push_back(r);
              ++out.injected;
            }
          }
          c.charge_ops(batch.size());
        }
      }

      c.set_phase(Phase::kScatter);
      const std::size_t n = mine.size();
      // Per-cell stencil memo, as in run_pic: consecutive particles along
      // the curve usually share a cell.
      std::uint64_t memo_cell = ~std::uint64_t{0};
      bool memo_owned[4] = {false, false, false, false};
      std::uint32_t memo_idx[4] = {0, 0, 0, 0};
      {
        Span s(log, rank, Layer::kDeposit);
        ghosts.begin_iteration();
        f.clear_sources();
        std::uint64_t foreign = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const auto st = particles::cic_stencil(grid, mine.x[i], mine.y[i]);
          if (st.node[0] != memo_cell) {
            memo_cell = st.node[0];
            for (int k = 0; k < 4; ++k) {
              const auto l = lg.local_of(st.node[k]);
              if (l != mesh::kNoLocal && l < lg.owned()) {
                memo_owned[k] = true;
                memo_idx[k] = l;
              } else {
                memo_owned[k] = false;
                memo_idx[k] = ghosts.deposit_slot_index(st.node[k]);
              }
            }
          }
          const double gamma = mine.gamma(i);
          const double qv = (multi ? mine.charge_of(i) : q) * inv_cell;
          const double jx = qv * mine.ux[i] / gamma;
          const double jy = qv * mine.uy[i] / gamma;
          const double jz = qv * mine.uz[i] / gamma;
          for (int k = 0; k < 4; ++k) {
            const double w = st.weight[k];
            if (memo_owned[k]) {
              const auto l = memo_idx[k];
              f.jx[l] += w * jx;
              f.jy[l] += w * jy;
              f.jz[l] += w * jz;
              f.rho[l] += w * qv;
            } else {
              ++foreign;
              double* slot = ghosts.deposit_data(memo_idx[k]);
              slot[0] += w * jx;
              slot[1] += w * jy;
              slot[2] += w * jz;
              slot[3] += w * qv;
            }
          }
        }
        c.charge(static_cast<double>(4 * n) * pc.scatter_per_vertex * delta);
        out.foreign_touches += foreign;
        out.ghost_entries += ghosts.entries();
      }
      {
        Span s(log, rank, Layer::kFlushScatter);
        ghosts.flush_scatter(c, f);
      }

      c.set_phase(Phase::kFieldSolve);
      {
        Span s(log, rank, Layer::kFieldSolve);
        dom->maxwell.step(c, f);
        c.charge(static_cast<double>(lg.owned()) * pc.field_per_node * delta);
      }

      c.set_phase(Phase::kGather);
      {
        Span s(log, rank, Layer::kFetchFields);
        ghosts.fetch_fields(c, f);
      }
      {
        Span s(log, rank, Layer::kGatherKick);
        memo_cell = ~std::uint64_t{0};
        for (std::size_t i = 0; i < n; ++i) {
          const auto st = particles::cic_stencil(grid, mine.x[i], mine.y[i]);
          if (st.node[0] != memo_cell) {
            memo_cell = st.node[0];
            for (int k = 0; k < 4; ++k) {
              const auto l = lg.local_of(st.node[k]);
              if (l != mesh::kNoLocal && l < lg.owned()) {
                memo_owned[k] = true;
                memo_idx[k] = l;
              } else {
                memo_owned[k] = false;
                memo_idx[k] = ghosts.slot_of(st.node[k]);
              }
            }
          }
          particles::LocalFields lf;
          for (int k = 0; k < 4; ++k) {
            const double w = st.weight[k];
            if (memo_owned[k]) {
              const auto l = memo_idx[k];
              lf.ex += w * f.ex[l];
              lf.ey += w * f.ey[l];
              lf.ez += w * f.ez[l];
              lf.bx += w * f.bx[l];
              lf.by += w * f.by[l];
              lf.bz += w * f.bz[l];
            } else {
              const double* s6 = ghosts.field_data(memo_idx[k]);
              lf.ex += w * s6[0];
              lf.ey += w * s6[1];
              lf.ez += w * s6[2];
              lf.bx += w * s6[3];
              lf.by += w * s6[4];
              lf.bz += w * s6[5];
            }
          }
          const double qi = multi ? mine.charge_of(i) : q;
          const double mi = multi ? mine.mass_of(i) : m;
          particles::boris_kick(qi, mi, dt, lf, mine.ux[i], mine.uy[i],
                                mine.uz[i]);
        }
        c.charge(static_cast<double>(4 * n) * pc.gather_per_vertex * delta);
      }

      c.set_phase(Phase::kPush);
      {
        Span s(log, rank, Layer::kPush);
        const std::uint64_t stride = mine.key_stride();
        if (!absorb_x && stride == 1) {
          for (std::size_t i = 0; i < n; ++i) {
            particles::advance_position(grid, mine, i, dt);
            mine.key[i] =
                core::key_of(*key_cache, grid, mine.x[i], mine.y[i]);
          }
        } else {
          // Order-preserving compaction of absorbed particles keeps the
          // curve order the incremental sort relies on.
          std::size_t w = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (absorb_x) {
              if (!particles::advance_position_absorb_x(grid, mine, i, dt)) {
                ++out.absorbed;
                continue;
              }
            } else {
              particles::advance_position(grid, mine, i, dt);
            }
            const std::uint64_t key =
                stride == 1
                    ? core::key_of(*key_cache, grid, mine.x[i], mine.y[i])
                    : core::encode_key(*key_cache, grid, mine.x[i], mine.y[i],
                                       stride, mine.key[i] % stride);
            if (w != i) mine.set(w, mine.rec(i));
            mine.key[w] = key;
            ++w;
          }
          if (w != n) mine.truncate(w);
        }
        c.charge(static_cast<double>(n) * pc.push_per_particle * delta);
      }

      c.set_phase(Phase::kOther);
      double loop_seconds = 0.0;
      {
        Span s(log, rank, Layer::kCollective);
        loop_seconds = c.allreduce_max(c.clock() - t_iter_start);
      }
      {
        Span s(log, rank, Layer::kRedistribute);
        if (policy->should_redistribute(iter, loop_seconds)) {
          c.set_phase(Phase::kRedistribute);
          const double tr = c.clock();
          out.redist_present += mine.size();
          const auto rrep = dom->partitioner.redistribute(c, mine);
          c.set_phase(Phase::kOther);
          double cost = 0.0;
          {
            Span s2(log, rank, Layer::kCollective);
            cost = c.allreduce_max(c.clock() - tr);
          }
          policy->notify_redistribution(iter, cost);
          out.redistributed[static_cast<std::size_t>(iter)] = 1;
          out.redist_moved += rrep.sent_particles;
        }
      }
    }

    Span s(log, rank, Layer::kFinalize);
    out.final_particles = static_cast<std::uint64_t>(mine.size());
    out.field_energy = dom->f.energy(dom->lg);
    out.kinetic_energy = mine.kinetic_energy();
  };

  sim::Machine machine(params.nranks, params.machine, params.faults);
  machine.set_observer(&log);
  const sim::RunResult run = machine.run(program);

  ReplayResult res;
  {
    Span s(log, kMain, Layer::kAggregate);
    Digest& d = res.digest;
    d.vtime_s = run.makespan();
    d.initial = static_cast<std::uint64_t>(global.size());
    res.redistributed.assign(static_cast<std::size_t>(params.iterations), 0);
    // Rank-order merge, as run_pic does, so the sums are bit-identical.
    for (const auto& o : outputs) {
      d.field_energy += o.field_energy;
      d.kinetic_energy += o.kinetic_energy;
      d.final_particles += o.final_particles;
      d.emitted += o.injected;
      d.absorbed += o.absorbed;
      for (std::size_t i = 0; i < o.redistributed.size(); ++i)
        res.redistributed[i] |= o.redistributed[i];
      res.ghost_entries += o.ghost_entries;
      res.foreign_touches += o.foreign_touches;
      res.redist_moved += o.redist_moved;
      res.redist_present += o.redist_present;
    }
    for (const char r : res.redistributed) d.redistributions += r ? 1 : 0;
  }
  log.instant(kMain);
  return res;
}

}  // namespace picpar::bench_e2e
