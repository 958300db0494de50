// Configuration for a parallel PIC run.
#pragma once

#include <cstdint>
#include <string>

#include "core/ghost_exchange.hpp"
#include "core/invariants.hpp"
#include "core/partitioner.hpp"
#include "mesh/grid.hpp"
#include "mesh/partition.hpp"
#include "particles/init.hpp"
#include "particles/particle_array.hpp"
#include "sfc/curve.hpp"
#include "sim/cost_model.hpp"
#include "sim/faults.hpp"

namespace picpar::pic {

/// How mesh grid points are assigned to ranks.
enum class GridDecomp {
  kBlock,  ///< classic 2-D Cartesian blocks
  kCurve,  ///< runs of the same space-filling curve (Fig 10)
};

/// Which field solver runs in the field-solve phase.
enum class FieldSolveKind {
  kMaxwell,  ///< full electromagnetic FDTD (the paper's case)
  kPoisson,  ///< electrostatic Jacobi solve
  kNone,     ///< skip (kinematics-only runs, benches that isolate comm)
};

/// Per-phase computation constants in units of the machine's delta,
/// mirroring the paper's T_scomp / T_fcomp / T_gcomp / T_push (Section 4).
/// Defaults are calibrated so the cm5 cost preset lands in the range of
/// Table 2 (a few hundred ms per iteration at 1K particles/rank).
struct PhaseCosts {
  double scatter_per_vertex = 60.0;   ///< T_scomp, per particle-vertex
  double field_per_node = 120.0;      ///< T_fcomp, per grid point per solve
  double gather_per_vertex = 70.0;    ///< T_gcomp, per particle-vertex
  double push_per_particle = 90.0;    ///< T_push, per particle
};

/// Runtime validation and checkpoint-based recovery. Everything defaults
/// to off: a default-configured run performs no extra collectives and no
/// state copies, so results are bit-identical to a build without this
/// subsystem.
struct ValidationParams {
  /// Run the invariant checker every k iterations (0 = off). Use 1 when
  /// memory faults are active so corruption is caught (and rolled back or
  /// scrubbed) before it feeds the next scatter.
  int check_every = 0;
  /// Keep an in-memory particle checkpoint every k iterations (0 = off).
  /// A baseline checkpoint is always taken right after the initial
  /// distribution when enabled. Checkpoints are only refreshed on
  /// iterations whose invariant check passed (when checks are on), so a
  /// rollback target is never itself corrupt.
  int checkpoint_every = 0;
  /// Give up after this many rollbacks (violations are still recorded).
  int max_recoveries = 8;
  /// Invariant tolerances; see core/invariants.hpp.
  core::InvariantConfig invariants{};

  bool enabled() const { return check_every > 0 || checkpoint_every > 0; }
};

/// Opt-in happens-before analysis (src/analysis). Everything defaults to
/// off: no observer is attached and runs are bit-identical to a build
/// without the analysis layer. The PICPAR_ANALYZE environment variable
/// (set, not "0") also enables the analyzer for any run without a rebuild.
struct AnalysisParams {
  /// Attach the race/tag/phase analyzer to the simulated machine.
  bool enabled = false;
  /// Run the whole program twice and compare happens-before DAG
  /// fingerprints (doubles the run; implies `enabled`).
  bool audit_determinism = false;
};

/// Opt-in deterministic tracing (src/trace). Everything defaults to off:
/// no observer is attached and runs are bit-identical to a build without
/// the trace layer. The PICPAR_TRACE=<path> environment variable (non-empty,
/// not "0") also enables tracing for any run without a rebuild, writing a
/// Chrome-trace JSON to <path>; PICPAR_TRACE_METRICS=<path> writes the
/// metrics JSON. Exported virtual-time artifacts are byte-identical between
/// sequential and parallel execution.
struct TraceParams {
  /// Attach the tracer to the simulated machine.
  bool enabled = false;
  /// Chrome-trace JSON output path ("" = keep in PicResult only).
  std::string path;
  /// Metrics JSON output path ("" = keep in PicResult only).
  std::string metrics_path;

  bool on() const { return enabled || !path.empty() || !metrics_path.empty(); }
};

/// Worker threads for the simulated machine (sim::Machine::set_workers).
/// By default one worker, the calling thread, runs every rank. `parallel`
/// (or the PICPAR_PARALLEL environment variable, set and not "0") runs
/// the ranks in contiguous blocks on several worker threads, with
/// bit-identical results; PICPAR_WORKERS overrides `workers`.
struct ExecParams {
  bool parallel = false;
  /// Worker threads when parallel; 0 = host hardware concurrency. Capped
  /// at the rank count.
  int workers = 0;
};

struct PicParams {
  mesh::GridDesc grid{128, 64};
  int nranks = 32;

  particles::InitParams init{};  ///< init.total must be set

  /// Scenario name from the scenario library (src/scenario): the loadout,
  /// species table, field seed, driver, boundary and injector as a bundle.
  /// The default is the paper's uniform plasma; an unknown name throws.
  std::string scenario = "uniform";

  sfc::CurveKind curve = sfc::CurveKind::kHilbert;
  GridDecomp grid_decomp = GridDecomp::kCurve;
  FieldSolveKind solver = FieldSolveKind::kMaxwell;

  int iterations = 200;
  double dt = 0.0;  ///< 0 = automatic CFL-limited step

  /// Redistribution policy spec: "static", "periodic:K", or "sar".
  std::string policy = "sar";

  core::DedupPolicy dedup = core::DedupPolicy::kDirect;
  core::PartitionerConfig partitioner{};
  PhaseCosts costs{};
  sim::CostModel machine = sim::CostModel::cm5();

  /// Fault injection (sim::FaultConfig; default: no faults). Memory faults
  /// (faults.memory_fault_prob) flip one bit of a random particle field on
  /// the drawing rank once per iteration — pair them with `validate` so
  /// the invariant checker can catch what checksums cannot.
  sim::FaultConfig faults{};
  /// Invariant validation + checkpoint/rollback recovery (default: off).
  ValidationParams validate{};
  /// Happens-before analysis and determinism audit (default: off).
  AnalysisParams analyze{};
  /// Deterministic tracing and metrics (default: off).
  TraceParams trace{};
  /// Execution engine (default: sequential reference scheduler).
  ExecParams exec{};

  /// Record global field/kinetic energy every k iterations (0 = off).
  /// Sampling performs an extra allreduce, so it adds (real) virtual time;
  /// leave it off for timing experiments.
  int sample_energy_every = 0;

  /// Canonical serialization of every semantically meaningful field: one
  /// "key=value" line per field in a fixed order, doubles in std::to_chars
  /// shortest round-trip form, prefixed by a format-version salt. Two configurations
  /// produce the same bytes iff run_pic would produce the same PicResult
  /// content, so the text is the identity the sweep result cache keys on.
  /// Environment overrides that change run semantics (PICPAR_CRASH_*,
  /// PICPAR_ANALYZE, PICPAR_TRACE*) are folded in; `exec` and the
  /// PICPAR_PARALLEL/PICPAR_WORKERS variables are deliberately excluded —
  /// runs are bit-identical at every worker count, so the worker count
  /// never changes the result. Trace output *paths* are
  /// likewise excluded (they name sinks, not semantics); whether tracing is
  /// on is included. See fingerprint.cpp and DESIGN.md §13.
  std::string canonical() const;

  /// FNV-1a 64-bit hash of canonical(), as 16 lowercase hex digits — the
  /// content address of this configuration's result.
  std::string fingerprint() const;
};

// Set-up that run_pic and the baselines share (simulation.cpp).

/// The grid partition of a p-rank group: Cartesian blocks or runs of
/// `curve`, as params.grid_decomp says.
mesh::GridPartition grid_partition(const PicParams& params,
                                   const sfc::Curve& curve, int p);

/// Append rank's share of the initial population to `out`: the rank-th of
/// p equal contiguous blocks of `global`.
void append_initial_slice(const particles::ParticleArray& global, int rank,
                          int p, particles::ParticleArray& out);

}  // namespace picpar::pic
