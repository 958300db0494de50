// Per-iteration and aggregate results of a PIC run — the quantities the
// paper's tables and figures report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace picpar::pic {

struct IterRecord {
  int iter = 0;
  /// Virtual time the whole machine spent on this iteration (max-rank
  /// clock advance), including any redistribution triggered after it.
  double exec_seconds = 0.0;
  /// Same, excluding the redistribution — the value the SAR policy sees.
  double loop_seconds = 0.0;

  // Scatter-phase traffic maxima over ranks (Figs 18-19).
  std::uint64_t scatter_max_sent_bytes = 0;
  std::uint64_t scatter_max_recv_bytes = 0;
  std::uint64_t scatter_max_sent_msgs = 0;
  std::uint64_t scatter_max_recv_msgs = 0;

  /// Max over ranks of distinct ghost grid points this iteration.
  std::uint64_t max_ghost_entries = 0;

  bool redistributed = false;
  double redist_seconds = 0.0;        ///< global (max-rank) cost
  std::uint64_t redist_particles_moved = 0;  ///< summed over ranks

  /// OR of core::Invariant bits that fired this iteration (0 = clean).
  std::uint32_t violation_mask = 0;
  /// True when a violation triggered rollback to the last checkpoint plus
  /// a forced full redistribution.
  bool recovered = false;
  /// True when this is the first iteration executed after a fail-stop
  /// shrink-to-survivors recovery (the run resumed here from checkpoint).
  bool crash_recovered = false;
};

struct EnergySample {
  int iter = 0;
  double field = 0.0;
  double kinetic = 0.0;
};

struct PicResult {
  std::vector<IterRecord> iters;

  /// Populated when PicParams::sample_energy_every > 0.
  std::vector<EnergySample> energy_history;

  double total_seconds = 0.0;    ///< virtual makespan of the whole run
  double compute_seconds = 0.0;  ///< max-rank charged computation
  double overhead_seconds() const { return total_seconds - compute_seconds; }

  int redistributions = 0;
  double redist_seconds_total = 0.0;
  double initial_distribution_seconds = 0.0;

  // Robustness diagnostics (populated when validation/faults are enabled).
  int recoveries = 0;                 ///< rollback + forced redistribution
  int violation_iterations = 0;       ///< iterations with any violation
  std::uint64_t initial_particles = 0;
  std::uint64_t final_particles = 0;  ///< summed over surviving ranks at end

  // Boundary bookkeeping (populated by scenarios with an injector and/or
  // an absorbing boundary; zero on the legacy periodic path). Conservation
  // under injection: initial + emitted - absorbed == final (faults off).
  std::uint64_t emitted_particles = 0;   ///< injected over the whole run
  std::uint64_t absorbed_particles = 0;  ///< lost through open boundaries

  // Fail-stop crash recovery (populated when crash faults are enabled;
  // see sim::FaultConfig crash_schedule / crash_prob and PICPAR_CRASH_*).
  int crash_count = 0;        ///< ranks lost to fail-stop crashes
  int crash_recoveries = 0;   ///< completed shrink-to-survivors recoveries
  int final_ranks = 0;        ///< surviving ranks at run end
  double mttr_seconds_total = 0.0;  ///< summed virtual crash-to-resume time
  std::uint64_t crash_lost_particles = 0;      ///< in dead ranks' subdomains
  std::uint64_t crash_restored_particles = 0;  ///< reloaded from checkpoint
  /// Max-over-survivors / mean final particle count (1.0 = balanced).
  double final_imbalance = 0.0;

  // Happens-before analysis (populated when PicParams::analyze or
  // PICPAR_ANALYZE enables the analyzer; see src/analysis).
  std::int64_t analysis_findings = -1;  ///< -1 = analyzer not attached
  std::string analysis_report;          ///< empty when clean or not attached
  std::uint64_t hb_fingerprint = 0;     ///< happens-before DAG fingerprint
  int determinism_audit = -1;           ///< -1 not run, 0 failed, 1 passed

  // Deterministic tracing (populated when PicParams::trace or PICPAR_TRACE
  // enables the tracer; see src/trace). The exported strings contain only
  // virtual-time quantities, so they are byte-identical between sequential
  // and parallel execution.
  bool traced = false;
  std::uint64_t trace_events = 0;   ///< observer callbacks during the run
  std::string metrics_json;         ///< MetricsSnapshot::to_json()
  std::string timeline_csv;         ///< RedistTimeline::to_csv() (Figs 11-17)
  /// Host wall-clock microseconds spent inside each sim::Phase, summed over
  /// ranks (indexed by sim::Phase; empty when tracing is off). Unlike the
  /// exports above this is schedule-dependent — it measures the real
  /// machine, not the simulated one — so it never participates in
  /// byte-identity checks, and it is the one member the cached result
  /// payload leaves out: a result read from the sweep cache has it empty,
  /// as an untraced run does. Used by perf-guard benches (DESIGN.md §10).
  std::vector<double> phase_wall_us;

  // Physics diagnostics at the end of the run (summed over ranks).
  double field_energy = 0.0;
  double kinetic_energy = 0.0;
  double total_charge = 0.0;

  sim::RunResult machine;  ///< full per-rank clocks and phase counters

  /// Mean per-iteration execution time.
  double mean_iter_seconds() const {
    if (iters.empty()) return 0.0;
    // picpar-lint: allow(float-reduction-order) iteration-order sum
    double s = 0.0;
    for (const auto& it : iters) s += it.exec_seconds;
    return s / static_cast<double>(iters.size());
  }
};

}  // namespace picpar::pic
