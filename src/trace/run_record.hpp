// The record of one run, the machine's one observer while tracing or
// analysis is on. Each rank appends fixed-size events in program order to
// a vector only its own callbacks write, so ranks on different workers
// record at once without a lock. At on_run_end the record copies the final
// clocks and the keys of the messages left in the final mailboxes, and
// builds the one lookup from a message's (src, dst, seq) to its send. The
// tracer (trace/tracer.hpp) and the analyzer (analysis/analyzer.hpp) read
// it after the run. Everything it holds but the phase changes' wall stamps
// is schedule-independent, so every export is byte-identical at every W.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/observer.hpp"
#include "util/sparse_rank.hpp"

namespace picpar::trace {

/// One event of one rank. Fixed size; `kind` names the live union member.
struct RecordEvent {
  enum class Kind : std::uint8_t { kSend, kRecv, kPhase, kMark };

  struct Send {
    std::uint64_t seq;  ///< per-(src, dst)-link sequence number
    std::uint64_t bytes;
    int dst;
    int tag;
    int epoch;        ///< membership epoch the sender executed in
    bool collective;  ///< issued from inside a collective
  };
  struct Recv {
    std::uint64_t seq;
    std::uint64_t bytes;
    int src;
    int tag;       ///< the matched message's tag
    int want_src;  ///< posted source pattern
    int want_tag;  ///< posted tag pattern
    int epoch;     ///< the matched message's membership epoch
    bool fp_payload;
    bool order_insensitive;
    bool collective;  ///< completed inside a collective
  };
  struct PhaseChange {
    sim::Phase from;
    std::uint64_t wall_ns;  ///< util::wall_clock() at the change
  };
  struct Mark {
    const char* name;  ///< the caller's string literal (sim::MarkEvent)
    std::int64_t iter;
    double value;
  };

  Kind kind;
  sim::Phase phase;  ///< the rank's phase (a phase change: the new one)
  double vtime;      ///< the rank's clock (a send: after its charge)
  union {
    Send send;
    Recv recv;
    PhaseChange change;
    Mark mark;
  };
};

/// A message left in a rank's final mailbox: its matching key, never its
/// payload.
struct Leftover {
  int src = 0;
  int tag = 0;
  std::uint64_t seq = 0;
  int epoch = 0;
  double arrival = 0.0;
  bool dup = false;
};

class RunRecord final : public sim::MachineObserver {
public:
  /// Events stored per rank. Past it a rank's later events are counted,
  /// not stored, so a truncated stream is a prefix of the real one. No
  /// test, bench or CI run comes near the default.
  static constexpr std::size_t kDefaultBudget = std::size_t{1} << 20;
  /// send_index() of a message the record does not hold.
  static constexpr std::size_t kNoEvent = ~std::size_t{0};

  explicit RunRecord(std::size_t budget = kDefaultBudget) : budget_(budget) {}

  void on_run_start(int nranks) override;
  void on_send(sim::Message& m, const sim::SendEvent& e) override;
  void on_recv(const sim::Message& m, const sim::RecvEvent& e,
               const std::deque<sim::Message>& mailbox) override;
  void on_phase(const sim::PhaseEvent& e) override;
  void on_mark(const sim::MarkEvent& e) override;
  void on_run_end(
      const std::vector<const std::deque<sim::Message>*>& mailboxes,
      const std::vector<double>& final_clocks) override;

  // ---- reading (after a completed run; reset by the next run) ----
  bool complete() const { return complete_; }
  int nranks() const { return nranks_; }
  std::size_t budget() const { return budget_; }
  const std::vector<RecordEvent>& events(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].events;
  }
  /// Events of one kind that `rank` fired past the budget.
  std::uint64_t dropped(int rank, RecordEvent::Kind k) const {
    return ranks_[static_cast<std::size_t>(rank)]
        .dropped[static_cast<std::size_t>(k)];
  }
  /// The lowest rank that fired more events than the budget, or -1.
  int first_truncated_rank() const;
  /// Events fired on every rank, stored or not.
  std::uint64_t total_events() const;
  /// The messages left in `rank`'s final mailbox, in the machine's
  /// deterministic matching order (arrival, src, seq, dup).
  const std::vector<Leftover>& leftovers(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].leftovers;
  }
  const std::vector<double>& final_clocks() const { return final_clocks_; }
  std::uint64_t wall_start_ns() const { return wall_start_ns_; }
  std::uint64_t wall_end_ns() const { return wall_end_ns_; }

  /// Index in events(src) of the send of the message (src -> dst, seq), or
  /// kNoEvent when the record does not hold it (it fell past the budget).
  std::size_t send_index(int src, int dst, std::uint64_t seq) const;

private:
  /// Rank-private: callbacks for rank r touch only ranks_[r]. Aligned so
  /// that ranks on different workers never share a cache line.
  struct alignas(64) Rank {
    std::vector<RecordEvent> events;
    std::uint64_t dropped[4] = {0, 0, 0, 0};
    std::vector<Leftover> leftovers;
    /// dst -> send event indices of the link, in seq order.
    util::SparseRankMap<std::vector<std::size_t>> links;
  };

  /// Slot for the next event of `rank`, or nullptr past the budget.
  RecordEvent* next(int rank, RecordEvent::Kind k);

  std::size_t budget_;
  int nranks_ = 0;
  bool complete_ = false;
  std::vector<Rank> ranks_;
  std::vector<double> final_clocks_;
  std::uint64_t wall_start_ns_ = 0;
  std::uint64_t wall_end_ns_ = 0;
};

}  // namespace picpar::trace
