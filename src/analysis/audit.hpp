// Two-run determinism audit and environment opt-in for the analyzer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "analysis/analyzer.hpp"
#include "sim/machine.hpp"
#include "trace/run_record.hpp"

namespace picpar::sim {
class Comm;
}

namespace picpar::analysis {

/// Result of running the same program twice under the analyzer.
struct AuditResult {
  std::uint64_t fingerprint_first = 0;
  std::uint64_t fingerprint_second = 0;
  std::uint64_t events_first = 0;
  std::uint64_t events_second = 0;
  /// Findings accumulated over both runs.
  std::uint64_t findings = 0;
  /// What the machine reported for the second run.
  sim::RunResult run;
  bool deterministic() const {
    return fingerprint_first == fingerprint_second &&
           events_first == events_second;
  }
  std::string summary() const;
};

/// Run `program` twice on `machine` with `record` installed, and compare
/// the happens-before DAG fingerprints that `analyzer` computes from it
/// after each run. A deterministic seeded program produces identical
/// virtual executions, so any divergence means hidden state (iteration
/// over pointer-keyed containers, uninitialized reads, leaked state between
/// runs) is steering communication. The record holds the second run
/// afterwards, and the machine's previous observer is restored on exit.
/// The program must be re-runnable: if it writes external state
/// (accumulates into captured buffers), the caller resets that state via
/// `between_runs`.
AuditResult audit_determinism(
    sim::Machine& machine, trace::RunRecord& record, Analyzer& analyzer,
    const std::function<void(sim::Comm&)>& program,
    const std::function<void()>& between_runs = nullptr);

/// True when the PICPAR_ANALYZE environment variable opts runs into the
/// analyzer (set and not "0"). Drivers (run_pic) honor it so any existing
/// workload can be audited without a rebuild.
bool analyzer_env_enabled();

}  // namespace picpar::analysis
