// Happens-before message-race and determinism analyzer for sim::Machine.
//
// The analyzer reads a completed RunRecord (trace/run_record.hpp) after
// the run and computes one vector clock per event from each rank's program
// order plus the matched (src, dst, seq) send/receive edges: a send ticks
// its rank's clock, a receive merges the matched send's clock and ticks.
// On that partial order it detects, with full provenance:
//
//   * message races      — a wildcard receive that two causally concurrent
//                          sends could have matched in either order;
//   * tag-space violations — user traffic on reserved negative tags, or
//                          user receives that match (or could next match)
//                          pending collective traffic;
//   * phase-attribution errors — a message charged to one PIC phase by the
//                          sender and a different phase by the receiver;
//   * reduction-order sensitivity — the floating-point flavor of a message
//                          race: operand arrival order into an accumulation
//                          is not fixed by happens-before.
//
// It also folds every event into a per-rank FNV fingerprint of the
// happens-before DAG; two runs of a deterministic program produce the same
// fingerprint (see analysis/audit.hpp for the two-run audit). The record's
// event sequences, edges and leftovers are schedule-independent, so the
// clocks, findings, report and fingerprint are byte-identical at every
// worker count.
//
// Receives completed inside Comm collectives are exempt from race findings:
// the collective library's wildcard receives (all_to_many) key their
// results by source rank, which makes delivery order immaterial — they are
// verified library internals, like an MPI implementation's own protocol
// traffic. User code with the same property can say so via
// Comm::OrderInsensitive.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/comm_stats.hpp"
#include "trace/run_record.hpp"

namespace picpar::analysis {

enum class FindingKind : int {
  kMessageRace = 0,
  kTagViolation,
  kPhaseMismatch,
  kReductionOrder,
};

inline constexpr int kNumFindingKinds = 4;

const char* finding_kind_name(FindingKind k);

/// One detected defect, with provenance.
struct Finding {
  FindingKind kind = FindingKind::kMessageRace;
  int rank = 0;       ///< rank at which the defect was detected
  int src = -1;       ///< sender involved (first sender for races)
  int other_src = -1; ///< second concurrent sender for races
  int tag = 0;
  sim::Phase phase = sim::Phase::kOther;        ///< phase at detection
  sim::Phase other_phase = sim::Phase::kOther;  ///< sender phase (mismatch)
  double vtime = 0.0;                           ///< virtual detection time
  std::string clocks;  ///< vector clocks of the events involved
  std::string detail;  ///< human-readable one-line description
};

class Analyzer {
public:
  struct Options {
    /// Stored findings are deduplicated by (kind, ranks, tag, phase) and
    /// capped here; detections past the cap still count in counts().
    std::size_t max_findings = 64;
  };

  Analyzer() : Analyzer(Options{}) {}
  explicit Analyzer(Options opt) : opt_(opt) {}

  /// Analyze the completed run in `record`. Throws std::runtime_error,
  /// naming the rank and the budget, when a rank fired more events than
  /// the record stores: the partial order needs every event.
  void analyze(const trace::RunRecord& record);

  // ---- results ----
  /// Stored (deduplicated, capped) findings, in deterministic merge order:
  /// by rank, online detections in program order before deferred ones.
  /// Findings accumulate across analyzed runs; see clear_findings().
  const std::vector<Finding>& findings() const { return findings_; }
  /// Total detections of one kind, including deduplicated repeats.
  std::uint64_t count(FindingKind k) const {
    return counts_[static_cast<int>(k)];
  }
  /// Total detections of all kinds.
  std::uint64_t total() const;
  void clear_findings();

  /// Happens-before DAG fingerprint of the last run: an FNV fold of every
  /// event (kind, endpoints, tag, bytes, phase, clock) in per-rank order.
  /// Deterministic program => stable fingerprint.
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// Sends and receives in the last run.
  std::uint64_t events() const { return events_; }

  /// Multi-line human-readable report of counts and stored findings.
  std::string report() const;

  /// Bytes the last analysis held at its peak — the ranks' vector clocks
  /// (O(p) each by design: the happens-before partial order needs one
  /// component per rank; the analyzer is opt-in diagnostics, not part of
  /// the production footprint), the send clocks it held, the remembered
  /// receives and the online findings — plus the stored findings.
  std::size_t memory_bytes() const;

private:
  void add_finding(Finding f);

  Options opt_;
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ULL;
  std::uint64_t events_ = 0;
  std::size_t pass_bytes_ = 0;
  std::vector<Finding> findings_;
  /// Dedup keys for findings_ — membership-only (insert/contains, never
  /// iterated), so hash order cannot reach the report; findings_ itself
  /// carries the deterministic order.
  // picpar-lint: allow(unordered-iteration-escape) membership-only set
  std::unordered_set<std::string> finding_keys_;
  std::uint64_t counts_[kNumFindingKinds] = {0, 0, 0, 0};
};

}  // namespace picpar::analysis
