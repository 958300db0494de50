// Happens-before message-race and determinism analyzer for sim::Machine.
//
// Installed as a MachineObserver (opt-in; see Machine::set_observer), the
// analyzer maintains one vector clock per rank, stamps every outgoing
// message with the sender's clock, and merges clocks on receive. On top of
// that partial order it detects, with full provenance:
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
// fingerprint (see analysis/audit.hpp for the two-run audit).
//
// Worker-count independence: the analyzer works identically with one
// worker and with several (sim::Machine::set_workers). Every callback
// touches only the state of the rank it fires on — on_send runs on the
// sender's worker outside the engine mutex, so nothing in it may
// look across ranks — and all cross-rank analysis (race detection against
// later-consumed or never-consumed messages) is deferred to on_run_end,
// the quiescence point, where per-rank buffers are merged in rank order.
// Because the per-rank event sequences, vector clocks, and leftover message
// sets are schedule-independent (the machine's deterministic matching layer
// guarantees this), the merged findings, counts, report text, and
// fingerprint are byte-identical across modes.
//
// Receives completed inside Comm collectives are exempt from race findings:
// the collective library's wildcard receives (all_to_many) key their
// results by source rank, which makes delivery order immaterial — they are
// verified library internals, like an MPI implementation's own protocol
// traffic. User code with the same property can say so via
// Comm::OrderInsensitive.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/vector_clock.hpp"
#include "sim/observer.hpp"

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

class Analyzer final : public sim::MachineObserver {
public:
  struct Options {
    /// Stored findings are deduplicated by (kind, ranks, tag, phase) and
    /// capped here; detections past the cap still count in counts().
    std::size_t max_findings = 64;
    /// Wildcard receives remembered per rank per run for the deferred race
    /// checks; receives past the cap are not analyzed (counts unaffected).
    std::size_t recv_history = 512;
    /// Consumed messages remembered per rank per run for the deferred
    /// checks. Logging only starts at the first remembered receive, so
    /// programs without race-eligible receives (e.g. the PIC pipeline,
    /// whose wildcard receives are collective-internal or annotated
    /// order-insensitive) log nothing at all.
    std::size_t consume_log = 65536;
  };

  Analyzer() : Analyzer(Options{}) {}
  explicit Analyzer(Options opt) : opt_(opt) {}

  // ---- MachineObserver ----
  void on_run_start(int nranks) override;
  void on_send(sim::Message& m, const sim::SendEvent& e) override;
  void on_recv(const sim::Message& m, const sim::RecvEvent& e,
               const std::deque<sim::Message>& mailbox) override;
  void on_run_end(
      const std::vector<const std::deque<sim::Message>*>& mailboxes,
      const std::vector<double>& final_clocks) override;

  // ---- results (read after the run; finalized in on_run_end) ----
  /// Stored (deduplicated, capped) findings, in deterministic merge order:
  /// by rank, online detections before deferred ones. Findings accumulate
  /// across runs of the same Machine; see clear_findings().
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
  std::uint64_t fingerprint() const;
  /// Events observed in the last run.
  std::uint64_t events() const { return events_; }

  /// Multi-line human-readable report of counts and stored findings.
  std::string report() const;

  /// Resident bytes of one rank's analyzer state: its vector clock (O(p)
  /// by design — the happens-before partial order needs one component per
  /// rank; the analyzer is opt-in diagnostics, not part of the production
  /// footprint), remembered receives, consume log, and online findings.
  std::size_t rank_memory_bytes(int rank) const;
  /// Sum of rank_memory_bytes over all ranks plus the merged findings.
  std::size_t memory_bytes() const;

private:
  /// A remembered wildcard receive awaiting the deferred (run-end) checks.
  struct PendingRecv {
    std::uint64_t consume_index = 0;  ///< rank-local consume order position
    int want_src = 0;
    int want_tag = 0;
    int matched_src = 0;
    int matched_tag = 0;
    bool fp = false;
    bool race_check = false;      ///< eligible for race / reduction-order
    bool reserved_check = false;  ///< wildcard-tag pending-reserved check
    int epoch = 0;                ///< membership epoch of the matched message
    sim::Phase phase = sim::Phase::kOther;
    double vtime = 0.0;
    std::vector<std::uint64_t> matched_vc;  ///< matched message's send clock
    VectorClock completion;                 ///< receiver clock at completion
  };

  /// A message consumed on a rank after its first remembered receive.
  struct Consumed {
    std::uint64_t index = 0;
    int src = 0;
    int tag = 0;
    int epoch = 0;  ///< membership epoch the message was sent in
    std::vector<std::uint64_t> vclock;
  };

  /// Everything one rank's callbacks may write. Callbacks on rank r touch
  /// only rank_[r] (and clocks_[r]) — the invariant that makes the
  /// analyzer safe with several workers and no locking of its own.
  struct RankBuffer {
    std::uint64_t fp = 0;
    std::uint64_t events = 0;
    std::uint64_t consume_count = 0;  ///< total messages consumed so far
    bool gate_open = false;           ///< consume logging active
    bool consume_overflow = false;
    std::vector<Finding> online;  ///< rank-local detections, program order
    std::vector<PendingRecv> recvs;
    std::vector<Consumed> consumed;
  };

  void add_finding(Finding f);
  void mix(int rank, std::uint64_t value);
  void run_deferred_checks(int rank, const std::deque<sim::Message>& leftover);

  Options opt_;
  int nranks_ = 0;
  std::vector<VectorClock> clocks_;  ///< per rank
  std::vector<RankBuffer> rank_;     ///< per rank
  std::uint64_t events_ = 0;
  bool any_consume_overflow_ = false;
  std::vector<Finding> findings_;
  /// Dedup keys for findings_ — membership-only (insert/contains, never
  /// iterated), so hash order cannot reach the report; findings_ itself
  /// carries the deterministic order.
  // picpar-lint: allow(unordered-iteration-escape) membership-only set
  std::unordered_set<std::string> finding_keys_;
  std::uint64_t counts_[kNumFindingKinds] = {0, 0, 0, 0};
};

}  // namespace picpar::analysis
