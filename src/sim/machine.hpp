// A deterministic simulated multicomputer.
//
// Each simulated processor ("rank") runs the same SPMD program on its own
// fiber, a user-space stack of its own. W worker threads run the fibers:
// worker w owns one fixed, contiguous block of ranks and runs one of them
// at a time, so a handoff between ranks of one block is a context switch
// on that worker's thread. At W = 1 (the default) the only worker is the
// thread that called run(), which starts no thread. Communication calls
// park the calling rank when they must wait; sends are buffered and never
// block.
//
// Time is virtual: every rank owns a clock in seconds that advances through
// explicit compute charges and through the two-level communication model
// (CostModel). A blocking receive advances the receiver clock to
// max(own clock, message arrival time), the standard per-process virtual
// time rule. Which message a receive takes is decided by the matching
// layer from message contents and clocks alone, never from the order in
// which workers happen to run, so every output is bit-identical at every
// W and regardless of host load.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/comm_stats.hpp"
#include "sim/cost_model.hpp"
#include "sim/faults.hpp"
#include "sim/message.hpp"
#include "sim/observer.hpp"
#include "util/sparse_rank.hpp"

namespace picpar::sim {

class Comm;

/// A rank's virtual-time clock. Written only by the owning rank; ranks on
/// other workers read it concurrently to bound the arrival time of
/// messages the owner might still send. Clocks are monotone, so a
/// stale read is a valid (conservative) lower bound — never an unsafe one.
class VirtualClock {
public:
  VirtualClock() = default;
  VirtualClock(const VirtualClock& o) : v_(o.load()) {}
  VirtualClock& operator=(const VirtualClock& o) {
    store(o.load());
    return *this;
  }
  VirtualClock& operator=(double d) {
    store(d);
    return *this;
  }
  VirtualClock& operator+=(double d) {
    store(load() + d);
    return *this;
  }
  operator double() const { return load(); }
  double load() const { return v_.load(std::memory_order_acquire); }
  void store(double d) { v_.store(d, std::memory_order_release); }

private:
  std::atomic<double> v_{0.0};
};

/// One blocked rank in a deadlock: what it was waiting for.
struct BlockedInfo {
  int rank = 0;
  int want_src = kAnySource;
  int want_tag = kAnyTag;
  std::size_t mailbox_size = 0;
  /// The pinned source this rank waits on has fail-stopped: the wait is a
  /// peer failure, not part of a cycle among live ranks.
  bool want_src_crashed = false;
};

/// One fail-stop crash that actually fired: which rank, and the virtual
/// time on its own clock at which it stopped.
struct CrashRecord {
  int rank = -1;
  double vtime = 0.0;
};

/// Internal control flow: thrown out of a rank's program at its fail-stop
/// point and caught only by the execution engines. Deliberately NOT derived
/// from std::exception so no library-level `catch (const std::exception&)`
/// along the unwind path can swallow a crash.
class RankCrashed {
public:
  RankCrashed(int rank, double vtime) : rank_(rank), vtime_(vtime) {}
  int rank() const { return rank_; }
  double vtime() const { return vtime_; }

private:
  int rank_;
  double vtime_;
};

/// Thrown into a survivor blocked on a dead peer once the peer's lease has
/// expired — the ULFM-style "revoked" notification. The survivor's clock is
/// first advanced to the latest lease expiry, so detection costs virtual
/// time like a real heartbeat timeout. Programs that want to continue catch
/// this and call Comm::agree_on_membership().
class PeerFailedError : public std::runtime_error {
public:
  PeerFailedError(const std::string& what, std::vector<CrashRecord> failed,
                  int observer_rank)
      : std::runtime_error(what),
        failed_(std::move(failed)),
        observer_rank_(observer_rank) {}

  /// Crashes newly acknowledged by the observing rank, sorted by rank id.
  const std::vector<CrashRecord>& failed() const { return failed_; }
  int observer_rank() const { return observer_rank_; }

private:
  std::vector<CrashRecord> failed_;
  int observer_rank_ = -1;
};

/// The agreed outcome of one membership change: every survivor receives an
/// identical copy at an identical virtual time, so post-agreement execution
/// is deterministic regardless of who detected the crash first.
struct MembershipView {
  int epoch = 0;      ///< completed agreements this run (starts at 0)
  double vtime = 0.0; ///< agreed clock value every survivor resumes at
  std::vector<int> survivors;       ///< physical ranks, ascending
  std::vector<CrashRecord> failed;  ///< crashes new in this view, by rank
};

/// Thrown by Machine::run when every live rank is blocked in a receive.
/// Carries the per-rank wait graph (who wants what from whom) so callers
/// and tests can diagnose the cycle structurally, not by parsing what().
class DeadlockError : public std::runtime_error {
public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
  DeadlockError(const std::string& what, std::vector<BlockedInfo> blocked)
      : std::runtime_error(what), blocked_(std::move(blocked)) {}

  const std::vector<BlockedInfo>& blocked() const { return blocked_; }

private:
  std::vector<BlockedInfo> blocked_;
};

/// Thrown when the transport exhausts its retransmit budget on one message
/// (every attempt arrived corrupted). Models an unrecoverable link.
class TransportError : public std::runtime_error {
public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Receive-side transport counters for one link (indexed by source rank).
struct LinkStats {
  std::uint64_t retries = 0;               ///< retransmissions requested
  std::uint64_t dup_discards = 0;          ///< duplicate deliveries dropped
  std::uint64_t corruptions_detected = 0;  ///< checksum mismatches caught
};

struct RankReport {
  int rank = 0;
  double clock = 0.0;   ///< final virtual time
  CommStats stats;
  FaultCounters faults;          ///< faults injected *by* this rank
  std::vector<LinkStats> links;  ///< per-source transport recovery counters
                                 ///< (empty when no fault model is active)
  bool crashed = false;          ///< this rank fail-stopped mid-run
  double crash_vtime = 0.0;

  LinkStats transport_total() const;
};

struct RunResult {
  std::vector<RankReport> ranks;
  /// Fail-stop crashes that fired, sorted by rank id.
  std::vector<CrashRecord> crashes;
  /// Membership agreements completed (the final epoch).
  int epochs = 0;

  /// Virtual makespan: max over ranks of the final clock.
  double makespan() const;
  /// Max over ranks of total compute seconds.
  double max_compute() const;
  /// makespan - max_compute: the paper's "overhead" metric.
  double overhead() const { return makespan() - max_compute(); }

  /// Summed transport recovery counters over all ranks and links.
  LinkStats transport_total() const;
  /// Summed injected-fault counters over all ranks.
  FaultCounters faults_total() const;
};

class Machine {
public:
  Machine(int nranks, CostModel cost);
  Machine(int nranks, CostModel cost, const FaultConfig& faults);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int size() const { return nranks_; }
  const CostModel& cost() const { return cost_; }

  /// Install (or replace) the fault model. Must not be called mid-run.
  void set_fault_model(const FaultConfig& cfg) {
    faults_ = FaultModel(cfg, nranks_);
  }

  /// Attach a passive observer (nullptr detaches). Not owned; must outlive
  /// any run it observes. Off by default: the fast paths then pay a single
  /// pointer test per event and message metadata stays empty, so runs are
  /// bit-identical to a build without the analysis layer.
  void set_observer(MachineObserver* obs) { observer_ = obs; }
  MachineObserver* observer() const { return observer_; }

  /// Tag-space enforcement (default on): user traffic — any send or
  /// explicit-tag receive issued outside a collective — must use tags >= 0;
  /// negative tags are reserved for collective internals and the transport
  /// control channel. Violations throw std::invalid_argument at the call
  /// site. Turn off only to let an attached analyzer *record* violations
  /// as findings instead of faulting the run.
  void set_strict_tags(bool strict) { strict_tags_ = strict; }
  bool strict_tags() const { return strict_tags_; }
  FaultModel& fault_model() { return faults_; }
  const FaultModel& fault_model() const { return faults_; }

  /// Worker threads a run uses; values below 1 mean 1, the default. At 1
  /// every rank runs on the thread that calls run(), which starts no
  /// thread. At W > 1 run() starts W - 1 threads and runs the first block
  /// itself; W is capped at size(). Results are identical at every W.
  void set_workers(int workers) { workers_ = workers < 1 ? 1 : workers; }
  int workers() const { return workers_; }

  /// Run an SPMD program to completion on all ranks; returns per-rank
  /// clocks and traffic. Throws DeadlockError on global deadlock and
  /// rethrows the first rank exception otherwise. A Machine can run
  /// several programs in sequence; clocks and stats reset between runs.
  RunResult run(const std::function<void(Comm&)>& program);

  /// Bytes of per-peer transport state (sequence counters, dedup sets,
  /// link counters, crash acks) held by one rank — the machine's share of
  /// the per-rank memory budget. Size-based and a pure function of the
  /// messages the rank has sent/consumed, so the value is identical across
  /// worker counts at the same program point. Callable from the owning
  /// rank during a run (reads only rank-owned state).
  std::size_t rank_transport_bytes(int rank) const;
  /// Number of distinct peers with transport state on `rank` (the "touched
  /// peers" count the sparse tables are bounded by).
  std::size_t rank_transport_peers(int rank) const;

private:
  friend class Comm;

  struct RankState {
    int id = 0;
    VirtualClock clock;
    std::deque<Message> mailbox;
    bool done = false;
    bool waiting = false;
    int want_src = kAnySource;
    int want_tag = kAnyTag;
    CommStats stats;
    Phase phase = Phase::kOther;
    /// >0 while executing inside a Comm collective (RAII-maintained); used
    /// for reserved-tag enforcement and analyzer exemptions.
    int collective_depth = 0;
    /// >0 inside a Comm::OrderInsensitive scope: wildcard receives here are
    /// declared order-independent (results keyed by source, commutative
    /// accumulation), so the analyzer must not flag them as races.
    int unordered_depth = 0;
    std::exception_ptr error;
    // ---- transport state, sparse in *touched* peers ----
    // Entries exist only for peers this rank actually exchanged messages
    // with, so per-rank transport state is O(neighbors), not O(p). All four
    // maps iterate in ascending rank order, matching the dense loops they
    // replaced, so delivery order and every export stay bit-identical.
    util::SparseRankMap<std::uint64_t> next_seq;  ///< per-destination sender seq
    /// Per-source seqs already delivered (duplicate suppression). Strictly
    /// membership-only — insert/count, never iterated — so its hash order
    /// can never leak into delivery order or any export.
    // picpar-lint: allow(unordered-iteration-escape) membership-only set
    util::SparseRankMap<std::unordered_set<std::uint64_t>> seen_seq;
    util::SparseRankMap<LinkStats> links;  ///< per-source counters
    // ---- fail-stop crash / membership state (crash faults only) ----
    bool crashed = false;
    double crash_vtime = 0.0;
    /// Per-peer acknowledgement: an entry for rank k exists once this rank
    /// has observed rank k's crash (via PeerFailedError or an agreement).
    util::SparseRankMap<char> acked_peer;
    int epoch = 0;               ///< membership epoch this rank executes in
    bool in_membership = false;  ///< parked in agree_on_membership
    bool membership_ready = false;
  };

  // --- used by Comm. Cross-rank state (mailboxes, scheduler state, the
  //     stall ladder) changes under the engine mutex at W > 1 ---
  void do_send(int src, int dst, int tag, Payload payload);
  Message do_recv(int rank, int src, int tag, bool fp_payload = false);
  MembershipView do_agree(int rank);
  void charge(int rank, double seconds, bool is_compute);
  LinkStats& link_stats(RankState& rs, int src);
  void recover_corruption(int rank, const Message& m);

  // --- fail-stop crash machinery ---

  /// Throw RankCrashed once the rank's own clock reaches its pre-drawn
  /// fail-stop time. Called at every communication and compute boundary, so
  /// crash points are rank-local and execution-order independent.
  void check_crash(int rank);
  /// Book a fail-stop once the rank's RankCrashed unwind has finished.
  void record_crash(int rank, double vtime);
  /// Lease-expiry detection: acknowledge every not-yet-acked crash on the
  /// calling rank, advance its clock past the latest lease, and throw
  /// PeerFailedError. Runs under the engine mutex.
  [[noreturn]] void throw_peer_failure(int rank);
  /// Lowest blocked rank that has not yet acknowledged every crash; -1 when
  /// none (stall-resolution step between force-commit and deadlock).
  int pick_failure_victim() const;
  /// Complete the membership barrier once every non-done rank is parked in
  /// it: build the agreed view, advance members to the agreed time, purge
  /// stale-epoch mailboxes, and mark members ready. Returns false when the
  /// barrier is not yet full (or nobody is in it).
  bool try_complete_membership();

  /// Set a rank's phase, firing the observer on an actual change. Phase is
  /// rank-owned state, so this needs no cross-rank synchronization.
  void note_phase(int rank, Phase p) {
    RankState& rs = ranks_[static_cast<std::size_t>(rank)];
    if (observer_ && rs.phase != p) {
      PhaseEvent ev;
      ev.rank = rank;
      ev.from = rs.phase;
      ev.to = p;
      ev.vtime = rs.clock.load();
      observer_->on_phase(ev);
    }
    rs.phase = p;
  }

  /// Emit a named instant on a rank. Reads only rank-owned state and never
  /// touches clocks or stats; a complete no-op without an observer.
  void note_mark(int rank, const char* name, std::int64_t iter, double value) {
    if (!observer_) return;
    const RankState& rs = ranks_[static_cast<std::size_t>(rank)];
    MarkEvent ev;
    ev.rank = rank;
    ev.name = name;
    ev.phase = rs.phase;
    ev.vtime = rs.clock.load();
    ev.iter = iter;
    ev.value = value;
    observer_->on_mark(ev);
  }

  // --- deterministic matching layer ---

  /// The pending message a receive would commit: minimum key
  /// (arrival, src, seq, dup) over the per-source flow heads (the lowest
  /// (seq, dup) matching message of each source, which preserves per-link
  /// FIFO under arrival jitter).
  struct Candidate {
    int pos = -1;  ///< index into the receiver's mailbox; -1 = none
    double arrival = 0.0;
    int src = -1;
    std::uint64_t seq = 0;
    bool dup = false;
  };

  /// Select (and, when dedup is active, discard already-seen duplicate
  /// heads from) the receiver's minimal matching candidate.
  Candidate find_candidate(int rank, int src, int tag);
  /// Conservative lower-bound-timestamp rule: may the candidate commit now,
  /// i.e. can no live rank still send a message with a smaller key? Always
  /// true for source-pinned receives (link FIFO fixes the order).
  bool commit_safe(int rank, int src_pattern, const Candidate& c) const {
    return commit_blocker(rank, src_pattern, c) < 0;
  }
  /// The lowest live rank whose clock still admits a send that could
  /// undercut the candidate; -1 when the candidate may commit.
  int commit_blocker(int rank, int src_pattern, const Candidate& c) const;
  /// Deliver the candidate: dequeue, advance the receiver clock, run
  /// transport recovery, book stats, fire the observer.
  Message commit_recv(int rank, const Candidate& c, int src, int tag,
                      bool fp_payload);

  /// Sender-side half of do_send: charge, stats, envelope, observer,
  /// fault draws. Fills out[0..1] (a duplicated message yields two) and
  /// returns the count; *new_clock receives the sender's post-charge clock,
  /// which the caller publishes only after enqueueing so concurrent
  /// lower-bound reads stay conservative.
  int build_send(int src, int dst, int tag, Payload payload, Message out[2],
                 double* new_clock);

  // --- scheduler (machine.cpp explains the blocks and the ready set) ---
  struct Sched;      // per-run fibers, workers and ready set
  class EngineLock;  // the engine mutex at W > 1, nothing at W = 1
  /// Hand this worker to the next runnable rank of the block; called with
  /// the lock held, returns with it held.
  void yield_from(int rank, EngineLock& lk);
  /// Next rank of from's block to run after `from` blocked or finished.
  /// The worker sleeps while other workers run; when every worker is out
  /// of work it resolves the stall. -1 when from's block is done or the
  /// stall is a deadlock (deadlocked_ set, wait graph recorded).
  int next_rank(int from, EngineLock& lk);
  int pick_next(int from);         ///< -1: none of from's block runnable
  /// The stall ladder, run once every worker is out of work: force-commit
  /// the minimal held candidate, else elect a peer-failure victim, else
  /// complete the membership barrier, else declare deadlock. Returns a
  /// rank of from's block to run now, or -1.
  int resolve_stall(int from);
  /// Probe whether a rank can run now; a wildcard receive held back by the
  /// lower-bound rule registers with the rank whose clock blocks it.
  bool runnable(RankState& rs);
  bool match(const Message& m, int src, int tag) const;
  static void fiber_entry(void* slot);
  /// Run the program on one rank; returns its fail-stop time if it crashed.
  std::optional<double> rank_main(int rank);
  /// Final bookkeeping and switch out of a finished rank's fiber.
  [[noreturn]] void leave(int rank, std::optional<double> crash_vtime);
  /// Body of worker thread w: runs its block's fibers until all are done.
  void work(int w);
  std::string deadlock_report() const;
  std::vector<BlockedInfo> blocked_ranks() const;

  void reset_run_state();
  RunResult collect_results();

  int nranks_;
  CostModel cost_;
  FaultModel faults_;
  MachineObserver* observer_ = nullptr;
  bool strict_tags_ = true;
  std::vector<RankState> ranks_;
  // Wait-graph snapshot taken at the moment deadlock is detected (ranks
  // may unwind and flip to done before run() gets to look).
  std::string deadlock_report_str_;
  std::vector<BlockedInfo> deadlock_blocked_;

  int workers_ = 1;
  Sched* sched_ = nullptr;          // non-null only during a run
  bool deadlocked_ = false;
  /// Rank allowed to commit its candidate past the safety rule (stall
  /// resolution); -1 = none. Cleared by the rank at commit.
  int force_commit_rank_ = -1;
  /// Blocked rank elected at a stall to observe peer failure; it wakes,
  /// clears the flag and throws PeerFailedError. -1 = none.
  int fail_recv_rank_ = -1;
  int epoch_ = 0;          ///< completed membership agreements this run
  int crashed_count_ = 0;  ///< ranks that have fail-stopped this run
  /// Crashes already published in some MembershipView (index = rank).
  std::vector<char> view_reported_;
  /// The last completed agreement; members copy it on wakeup. Safe as a
  /// single slot: a new agreement cannot complete until every survivor has
  /// consumed the previous one and re-entered the barrier.
  MembershipView pending_view_;
  /// Per-source flow-head scratch for find_candidate: sorted (src, mailbox
  /// position) pairs over the sources present in the scanned mailbox, so
  /// the scratch is O(distinct senders), not O(p). Capacity persists across
  /// calls. Guarded by the engine mutex.
  std::vector<std::pair<int, int>> scratch_heads_;
};

/// True when the PICPAR_PARALLEL environment variable selects parallel
/// execution (set and not "0").
bool parallel_env_enabled();

/// Worker count for a parallel run: PICPAR_WORKERS when set (> 0), else
/// `requested` when > 0, else the host's hardware concurrency. Machine
/// caps it at the rank count.
int resolve_workers(int requested);

}  // namespace picpar::sim
