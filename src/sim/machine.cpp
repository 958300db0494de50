#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>

#include "sim/comm.hpp"
#include "sim/fiber.hpp"
#include "sim/held_set.hpp"
#include "util/env.hpp"

namespace picpar::sim {

double RunResult::makespan() const {
  double m = 0.0;
  for (const auto& r : ranks) m = std::max(m, r.clock);
  return m;
}

double RunResult::max_compute() const {
  double m = 0.0;
  for (const auto& r : ranks) m = std::max(m, r.stats.total().compute_seconds);
  return m;
}

LinkStats RankReport::transport_total() const {
  LinkStats t;
  for (const auto& l : links) {
    t.retries += l.retries;
    t.dup_discards += l.dup_discards;
    t.corruptions_detected += l.corruptions_detected;
  }
  return t;
}

LinkStats RunResult::transport_total() const {
  LinkStats t;
  for (const auto& r : ranks) {
    const LinkStats rt = r.transport_total();
    t.retries += rt.retries;
    t.dup_discards += rt.dup_discards;
    t.corruptions_detected += rt.corruptions_detected;
  }
  return t;
}

FaultCounters RunResult::faults_total() const {
  FaultCounters t;
  for (const auto& r : ranks) t += r.faults;
  return t;
}

Machine::Machine(int nranks, CostModel cost)
    : nranks_(nranks), cost_(cost) {
  if (nranks <= 0) throw std::invalid_argument("Machine: nranks must be > 0");
}

Machine::Machine(int nranks, CostModel cost, const FaultConfig& faults)
    : Machine(nranks, cost) {
  set_fault_model(faults);
}

Machine::~Machine() = default;

bool Machine::match(const Message& m, int src, int tag) const {
  return (src == kAnySource || m.src == src) &&
         (tag == kAnyTag || m.tag == tag);
}

// ---------------------------------------------------------------------------
// Deterministic matching layer.
//
// A receive never takes "the first message the mailbox scan happens to
// meet" — it takes the candidate with the minimum (arrival, src, seq, dup)
// key, where the per-source representative is that source's flow head (the
// lowest (seq, dup) matching message, which keeps per-link FIFO even when
// arrival jitter reorders timestamps). The key is a schedule-independent
// total order: it depends only on message contents, never on when workers
// physically enqueued them. This is what lets several workers run ranks at
// once and still produce bit-identical results to one.
// ---------------------------------------------------------------------------

Machine::Candidate Machine::find_candidate(int rank, int src, int tag) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  const bool dedup =
      faults_.message_faults() && faults_.config().duplicate_prob > 0.0;
  for (;;) {
    // Flow heads of the sources actually present in the mailbox, sorted by
    // source rank — O(distinct senders) instead of an O(p) dense sweep.
    scratch_heads_.clear();
    for (int pos = 0; pos < static_cast<int>(rs.mailbox.size()); ++pos) {
      const Message& m = rs.mailbox[static_cast<std::size_t>(pos)];
      if (!match(m, src, tag)) continue;
      const auto it = std::lower_bound(
          scratch_heads_.begin(), scratch_heads_.end(), m.src,
          [](const std::pair<int, int>& e, int s) { return e.first < s; });
      if (it == scratch_heads_.end() || it->first != m.src) {
        scratch_heads_.insert(it, {m.src, pos});
        continue;
      }
      const Message& h = rs.mailbox[static_cast<std::size_t>(it->second)];
      if (m.seq < h.seq || (m.seq == h.seq && !m.dup && h.dup))
        it->second = pos;
    }
    Candidate best;
    for (const auto& [s, head] : scratch_heads_) {
      const Message& h = rs.mailbox[static_cast<std::size_t>(head)];
      // Sources ascend, so on an arrival tie the lower source rank wins.
      if (best.pos >= 0 && h.arrival >= best.arrival) continue;
      best.pos = head;
      best.arrival = h.arrival;
      best.src = s;
      best.seq = h.seq;
      best.dup = h.dup;
    }
    if (best.pos < 0 || !dedup) return best;
    auto& seen = rs.seen_seq.ref(best.src);
    if (seen.find(best.seq) == seen.end()) return best;
    // Duplicate redelivery of an already-consumed message: the transport
    // silently drops it and matching restarts.
    link_stats(rs, best.src).dup_discards += 1;
    rs.mailbox.erase(rs.mailbox.begin() + best.pos);
  }
}

int Machine::commit_blocker(int rank, int src_pattern,
                            const Candidate& c) const {
  // Source-pinned receives are fixed by link FIFO: any future message from
  // that source carries a higher sequence number, so the candidate can
  // never be displaced.
  if (src_pattern != kAnySource) return -1;
  // Wildcard-source: conservative lower-bound-timestamp rule. Any message
  // a live rank r could still send arrives no earlier than clock_r + tau
  // (message_cost >= tau, jitter >= 0), with key (arrival, r). The
  // candidate (a*, s*) commits only when no such future key can undercut
  // it. Clocks are monotone, so a stale clock read only delays the commit,
  // never mis-orders it.
  for (const auto& rs : ranks_) {
    if (rs.id == rank || rs.id == c.src || rs.done) continue;
    const double lb = rs.clock.load() + cost_.tau;
    if (lb > c.arrival) continue;
    if (lb == c.arrival && rs.id > c.src) continue;
    return rs.id;
  }
  return -1;
}

std::vector<BlockedInfo> Machine::blocked_ranks() const {
  std::vector<BlockedInfo> blocked;
  for (const auto& rs : ranks_) {
    if (rs.done) continue;
    BlockedInfo bi{rs.id, rs.want_src, rs.want_tag, rs.mailbox.size(), false};
    if (rs.want_src >= 0 && rs.want_src < nranks_)
      bi.want_src_crashed =
          ranks_[static_cast<std::size_t>(rs.want_src)].crashed;
    blocked.push_back(bi);
  }
  return blocked;
}

std::string Machine::deadlock_report() const {
  // Emit the wait graph: each blocked rank, what it wants, and the state of
  // the rank it is waiting on (done ranks can never satisfy a recv — the
  // most common deadlock cause). Fail-stopped ranks are named explicitly:
  // waiting on one is a peer failure, not part of a wait cycle.
  std::ostringstream os;
  os << "simulated machine deadlock: all live ranks blocked in recv\n";
  for (const auto& rs : ranks_)
    if (rs.crashed)
      os << "  rank " << rs.id << " CRASHED (fail-stop) at t=" << rs.crash_vtime
         << " and will never send again\n";
  for (const auto& rs : ranks_) {
    if (rs.done) continue;
    os << "  rank " << rs.id << " waiting for (src=" << rs.want_src
       << ", tag=" << rs.want_tag << "), mailbox holds " << rs.mailbox.size()
       << " message(s)";
    if (rs.want_src >= 0 && rs.want_src < nranks_) {
      const auto& peer = ranks_[static_cast<std::size_t>(rs.want_src)];
      if (peer.crashed)
        os << "; rank " << rs.want_src << " crashed at t=" << peer.crash_vtime
           << " — peer failure, not a wait cycle";
      else if (peer.done)
        os << "; rank " << rs.want_src << " already finished";
      else if (peer.waiting)
        os << "; rank " << rs.want_src << " is itself blocked on (src="
           << peer.want_src << ", tag=" << peer.want_tag << ")";
    }
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Scheduler.
//
// Every rank runs on a fiber of its own. W worker threads run the fibers:
// worker w owns one fixed, contiguous block of ranks, and at most one rank
// of a block runs at a time. At W = 1 the block is every rank and the
// worker is the thread inside run(). A rank runs until it blocks (a
// receive with nothing deliverable, or the membership barrier) or
// finishes; its worker then runs the first runnable rank of the block in
// round-robin order after it, so a handoff is one context switch.
// Neighbours on the space-filling curve mostly share a block, so once a
// block holds several ranks most handoffs stay on one thread (DESIGN.md
// §8 has the counts).
//
// The ready set finds that rank without probing the whole block. It holds
// every rank that might be runnable; a rank leaves it only when a probe
// finds it blocked, and re-enters when something its blocking condition
// reads changes:
//   * a message lands in its mailbox (its candidate may change);
//   * the rank whose clock held its wildcard receive back under the
//     lower-bound rule (the first blocker found) stops running — clocks and
//     done flags move only while their owner runs;
//   * a membership agreement completes (clocks, mailboxes and barrier state
//     change for every survivor);
//   * the stall ladder elects it.
// A rank outside the set is therefore blocked, and skipping it picks
// exactly the rank a full round-robin probe would: at W = 1 the schedule,
// and every output with it, is that of the probe-everything scheduler.
//
// Workers. At W > 1 one engine mutex guards everything that crosses ranks:
// mailboxes, the ready and held sets, the watcher lists, the stall and
// membership state, done flags. A rank's own computation, its clock
// charges and its sends' sender-side half run outside it. No mutex is held
// across a fiber switch. A mark (above) on a rank of another block wakes
// that block's worker if it sleeps; a worker whose block has nothing
// runnable sleeps until then. When the last running worker runs out of
// work too, every worker has probed every rank marked in its set, so the
// machine is quiescent exactly as the single worker is when its set runs
// dry: nobody can send until something commits, and that worker resolves
// the stall. The elected rank is marked in its worker's set. Determinism
// stays in the matching layer: a receive's result depends on message keys
// and clocks, never on which worker got there first.
//
// At a global stall every rank has been probed since its last change, so
// the ranks with a pending candidate are exactly those whose last probe
// found one held back, and that candidate is still the one find_candidate
// would return: the scheduler keeps those ranks ordered by their recorded
// candidates' keys, and the stall ladder reads the minimum instead of
// rescanning p mailboxes.
// ---------------------------------------------------------------------------

namespace {

/// One bit per rank, searched a 64-bit word at a time.
class RankBits {
public:
  explicit RankBits(int n)
      : words_((static_cast<std::size_t>(n) + 63) / 64, 0), n_(n) {}

  void set(int r) { word(r) |= bit(r); }
  void reset(int r) { word(r) &= ~bit(r); }
  void set_all() {
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    if (n_ % 64 != 0) words_.back() = (std::uint64_t{1} << (n_ % 64)) - 1;
  }
  /// First set rank of [lo, hi) in round-robin order from `start`; -1
  /// when none.
  int first_from(int start, int lo, int hi) const {
    const int r = first(start, hi);
    return r >= 0 ? r : first(lo, start);
  }

private:
  static std::uint64_t bit(int r) { return std::uint64_t{1} << (r & 63); }
  std::uint64_t& word(int r) {
    return words_[static_cast<std::size_t>(r) >> 6];
  }
  int first(int lo, int hi) const {
    for (int w = lo >> 6; lo < hi && w <= (hi - 1) >> 6; ++w) {
      std::uint64_t bits = words_[static_cast<std::size_t>(w)];
      if (w == lo >> 6) bits &= ~std::uint64_t{0} << (lo & 63);
      if (bits != 0) {
        const int r = w * 64 + std::countr_zero(bits);
        return r < hi ? r : -1;
      }
    }
    return -1;
  }

  std::vector<std::uint64_t> words_;
  int n_;
};

}  // namespace

class Machine::EngineLock {
public:
  /// Locks `mu` unless it is null (W = 1).
  explicit EngineLock(std::mutex* mu) {
    if (mu != nullptr) lk_ = std::unique_lock<std::mutex>(*mu);
  }
  void lock() {
    if (lk_.mutex() != nullptr) lk_.lock();
  }
  void unlock() {
    if (lk_.mutex() != nullptr) lk_.unlock();
  }
  std::unique_lock<std::mutex>& get() { return lk_; }

private:
  std::unique_lock<std::mutex> lk_;
};

struct Machine::Sched {
  /// One rank's fiber; the slot is the fiber entry's argument.
  struct Slot {
    Machine* machine = nullptr;
    int rank = 0;
    int worker = 0;
    std::unique_ptr<detail::Fiber> fiber;
  };

  /// One worker thread and its block of ranks [lo, hi).
  struct Worker {
    int lo = 0;
    int hi = 0;
    int live = 0;                    ///< ranks of the block not yet done
    detail::Fiber* main = nullptr;   ///< the worker thread's own context
    bool asleep = false;
    std::condition_variable cv;
  };

  Sched(Machine& m, const std::function<void(Comm&)>& prog, int nworkers)
      : program(&prog),
        slots(static_cast<std::size_t>(m.nranks_)),
        workers(static_cast<std::size_t>(nworkers)),
        active(nworkers),
        ready(m.nranks_),
        held(m.nranks_),
        watchers(static_cast<std::size_t>(m.nranks_)) {
    const auto p = static_cast<std::int64_t>(m.nranks_);
    for (int w = 0; w < nworkers; ++w) {
      Worker& wk = workers[static_cast<std::size_t>(w)];
      wk.lo = static_cast<int>(p * w / nworkers);
      wk.hi = static_cast<int>(p * (w + 1) / nworkers);
      wk.live = wk.hi - wk.lo;
      for (int r = wk.lo; r < wk.hi; ++r)
        slots[static_cast<std::size_t>(r)].worker = w;
    }
    constexpr std::size_t kStack = detail::Fiber::kDefaultStackBytes;
    for (int r = 0; r < m.nranks_; ++r) {
      Slot& s = slots[static_cast<std::size_t>(r)];
      s.machine = &m;
      s.rank = r;
      try {
        s.fiber = std::make_unique<detail::Fiber>(kStack, &Machine::fiber_entry,
                                                  &s);
      } catch (const std::system_error& e) {
        // The stacks made so far are unmapped as `slots` unwinds.
        throw std::system_error(
            e.code(), "Machine: cannot start rank " + std::to_string(r) +
                          " of p=" + std::to_string(m.nranks_) + " with a " +
                          std::to_string(kStack >> 20) + " MiB stack each");
      }
    }
    ready.set_all();
  }

  int nworkers() const { return static_cast<int>(workers.size()); }
  std::mutex* engine_mutex() { return workers.size() > 1 ? &mu : nullptr; }
  detail::Fiber& fiber(int r) {
    return *slots[static_cast<std::size_t>(r)].fiber;
  }
  Worker& worker_of(int r) {
    return workers[static_cast<std::size_t>(
        slots[static_cast<std::size_t>(r)].worker)];
  }

  /// `r` might be runnable: mark it, and wake its worker if it sleeps.
  void mark(int r) {
    ready.set(r);
    if (workers.size() > 1) wake(worker_of(r));
  }
  void wake(Worker& w) {
    if (!w.asleep) return;
    w.asleep = false;
    --asleep;
    w.cv.notify_one();
  }
  void mark_all() {
    ready.set_all();
    for (Worker& w : workers) wake(w);
  }
  /// `r` stopped running: re-mark every receive its clock held back.
  void wake_watchers(int r) {
    auto& w = watchers[static_cast<std::size_t>(r)];
    for (const int x : w) mark(x);
    w.clear();
  }
  /// The stall ladder chose `r`: run it now when it shares from's block,
  /// else hand it to its own worker.
  int elect(int r, int from) {
    held.release(r);
    if (slots[static_cast<std::size_t>(r)].worker ==
        slots[static_cast<std::size_t>(from)].worker)
      return r;
    mark(r);
    return -1;
  }

  const std::function<void(Comm&)>* program;
  std::vector<Slot> slots;
  std::vector<Worker> workers;
  int active;      ///< workers whose block still has live ranks
  int asleep = 0;  ///< active workers sleeping in next_rank
  bool abort = false;  ///< a worker thread failed to start
  std::mutex mu;
  RankBits ready;  ///< might be runnable
  /// Ranks whose last probe found a candidate the lower bound held back,
  /// with that candidate's key.
  detail::HeldSet held;
  /// watchers[r]: ranks whose wildcard receive was last found held back by
  /// r's clock. Entries can be stale (the rank since moved on); waking a
  /// stale entry only costs one extra probe.
  std::vector<std::vector<int>> watchers;
};

bool Machine::runnable(RankState& rs) {
  Sched& s = *sched_;
  if (!rs.done && !rs.in_membership && rs.waiting &&
      fail_recv_rank_ != rs.id) {
    const Candidate c = find_candidate(rs.id, rs.want_src, rs.want_tag);
    if (c.pos >= 0 && force_commit_rank_ != rs.id) {
      const int blocker = commit_blocker(rs.id, rs.want_src, c);
      if (blocker >= 0) {
        s.held.hold(rs.id, c.arrival, c.src, c.seq, c.dup);
        s.watchers[static_cast<std::size_t>(blocker)].push_back(rs.id);
        return false;
      }
    }
    s.held.release(rs.id);
    return c.pos >= 0;
  }
  s.held.release(rs.id);
  if (rs.done) return false;
  if (rs.in_membership) return rs.membership_ready;
  return true;  // not in a receive, or elected to observe a peer failure
}

int Machine::pick_next(int from) {
  // Probe marked ranks of from's block in round-robin order from from+1
  // (from itself last), dropping each one found blocked.
  Sched& s = *sched_;
  const Sched::Worker& w = s.worker_of(from);
  int start = from + 1 == w.hi ? w.lo : from + 1;
  for (;;) {
    const int cand = s.ready.first_from(start, w.lo, w.hi);
    if (cand < 0) return -1;
    if (runnable(ranks_[static_cast<std::size_t>(cand)])) return cand;
    s.ready.reset(cand);
    start = cand + 1 == w.hi ? w.lo : cand + 1;
  }
}

int Machine::resolve_stall(int from) {
  // Quiescent state: every live rank is parked and nothing is safe. No
  // send can happen until some receive commits, so the messages the safety
  // rule was waiting on can never materialize — commit the globally
  // minimal candidate key. The state itself is deterministic (it is
  // reached by the same commit sequence in every schedule), so the choice
  // is too. The ranks with a candidate are the held ones, and the
  // candidate each probe found is still current (see the notes above); the
  // held set orders them by key, lowest rank first on a full tie. Then the
  // fail-stop ladder: elect the lowest blocked rank that has not yet
  // acknowledged every crash (it wakes into PeerFailedError), else
  // complete a full membership barrier. Only after all three steps fail is
  // the stall a true deadlock.
  Sched& s = *sched_;
  const int forced = s.held.min_rank();
  if (forced >= 0) {
    force_commit_rank_ = forced;
    return s.elect(forced, from);
  }
  const int victim = pick_failure_victim();
  if (victim >= 0) {
    fail_recv_rank_ = victim;
    return s.elect(victim, from);
  }
  if (try_complete_membership()) {
    s.mark_all();
    return pick_next(from);
  }
  // Everyone is blocked. Snapshot the wait graph on the first detection
  // only: ranks unwinding afterwards must not clobber the original picture.
  if (!deadlocked_) {
    deadlocked_ = true;
    deadlock_report_str_ = deadlock_report();
    deadlock_blocked_ = blocked_ranks();
  }
  for (Sched::Worker& w : s.workers) w.cv.notify_one();
  return -1;
}

int Machine::next_rank(int from, EngineLock& lk) {
  Sched& s = *sched_;
  Sched::Worker& me = s.worker_of(from);
  for (;;) {
    const int next = pick_next(from);
    if (next >= 0) return next;
    if (deadlocked_) return -1;
    if (me.live == 0) {
      // The block is done and this worker leaves; if it was the last one
      // running, the others are stalled.
      if (--s.active > 0 && s.asleep == s.active) resolve_stall(from);
      return -1;
    }
    if (s.asleep + 1 < s.active) {
      // Other workers still run: sleep until one marks a rank of this
      // block, or a stall resolution elsewhere ends in deadlock.
      me.asleep = true;
      ++s.asleep;
      while (me.asleep && !deadlocked_) me.cv.wait(lk.get());
      if (me.asleep) {  // woken by a deadlock
        me.asleep = false;
        --s.asleep;
      }
      continue;
    }
    const int elected = resolve_stall(from);
    if (elected >= 0 || deadlocked_) return elected;
  }
}

void Machine::yield_from(int rank, EngineLock& lk) {
  // Only the active rank of the block calls this, from its own fiber, when
  // it blocks.
  if (deadlocked_)
    throw DeadlockError("rank " + std::to_string(rank) +
                        " unwound due to deadlock");
  // What this rank did while it ran may have unblocked others, and it is
  // itself probed last.
  Sched& s = *sched_;
  s.ready.set(rank);
  s.wake_watchers(rank);
  const int next = next_rank(rank, lk);
  if (next < 0)
    throw DeadlockError("rank " + std::to_string(rank) +
                        " participated in a deadlock");
  if (next != rank) {
    lk.unlock();
    detail::Fiber::switch_to(s.fiber(rank), s.fiber(next));
    lk.lock();
  }
  // Resumed: either this rank is runnable, or a deadlock is being unwound
  // rank by rank.
  if (deadlocked_)
    throw DeadlockError("rank " + std::to_string(rank) +
                        " unwound due to deadlock");
}

void Machine::leave(int rank, std::optional<double> crash_vtime) {
  Sched& s = *sched_;
  Sched::Worker& me = s.worker_of(rank);
  EngineLock lk(s.engine_mutex());
  // Booked before the rank counts as done, so a stall that sees it done
  // also sees its crash.
  if (crash_vtime) record_crash(rank, *crash_vtime);
  ranks_[static_cast<std::size_t>(rank)].done = true;
  --me.live;
  s.wake_watchers(rank);
  int next = deadlocked_ ? -1 : next_rank(rank, lk);
  if (deadlocked_) {
    // Resume the block's unfinished ranks one by one so each unwinds its
    // stack. All of them have started: a rank that never ran is runnable,
    // and a deadlock means nobody is.
    next = -1;
    for (int r = me.lo; r < me.hi && next < 0; ++r)
      if (!ranks_[static_cast<std::size_t>(r)].done) next = r;
  }
  lk.unlock();
  detail::Fiber::exit_to(s.fiber(rank), next < 0 ? *me.main : s.fiber(next));
}

int Machine::build_send(int src, int dst, int tag, Payload payload,
                        Message out[2], double* new_clock) {
  // Everything here touches only sender-owned state (clock arithmetic,
  // stats, per-destination sequence counters, the sender's fault stream,
  // the observer's state for this rank), so it runs outside the engine
  // mutex. The caller publishes *new_clock only after enqueueing: a
  // concurrent lower-bound read must not see the post-charge clock while
  // the message it bounds is still in flight.
  auto& s = ranks_[static_cast<std::size_t>(src)];
  if (strict_tags_ && tag < 0 && s.collective_depth == 0)
    throw std::invalid_argument(
        "send: tag " + std::to_string(tag) +
        " is in the reserved (negative) collective tag space; user traffic "
        "must use tags >= 0");
  const auto bytes = payload.size();
  const double cost = cost_.message_cost(bytes);
  const double clock = s.clock.load() + cost;
  *new_clock = clock;
  auto& pc = s.stats.phase(s.phase);
  pc.msgs_sent += 1;
  pc.bytes_sent += bytes;
  pc.comm_seconds += cost;

  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.arrival = clock;
  m.epoch = s.epoch;
  m.payload = std::move(payload);

  // The link sequence number orders a link's traffic for deterministic
  // matching, so it is assigned on every send, faults or not. Assigned
  // before the observer fires so observers can key on (src, dst, seq).
  m.seq = s.next_seq.ref(dst)++;

  if (observer_) {
    SendEvent ev;
    ev.src = src;
    ev.dst = dst;
    ev.tag = tag;
    ev.bytes = bytes;
    ev.phase = s.phase;
    ev.collective_depth = s.collective_depth;
    ev.vtime = clock;
    // Fired before any fault perturbation: a duplicated delivery is the
    // same send event, keyed by the same (src, dst, seq).
    observer_->on_send(m, ev);
  }

  if (!faults_.message_faults()) {
    out[0] = std::move(m);
    return 1;
  }

  // ---- faulty-fabric path: envelope the payload, then perturb ----
  m.checksum = fnv1a(m.payload.data(), m.payload.size());
  m.arrival += faults_.latency_jitter(src);

  if (faults_.should_duplicate(src)) {
    Message copy = m;  // shares the payload buffer
    copy.dup = true;
    copy.arrival += faults_.latency_jitter(src);
    out[0] = std::move(m);
    out[1] = std::move(copy);
    return 2;
  }
  out[0] = std::move(m);
  return 1;
}

void Machine::do_send(int src, int dst, int tag, Payload payload) {
  if (dst < 0 || dst >= nranks_)
    throw std::out_of_range("send: bad destination rank " +
                            std::to_string(dst));
  check_crash(src);
  Message out[2];
  double new_clock = 0.0;
  const int n = build_send(src, dst, tag, std::move(payload), out, &new_clock);
  EngineLock lk(sched_->engine_mutex());
  auto& dstbox = ranks_[static_cast<std::size_t>(dst)].mailbox;
  for (int i = 0; i < n; ++i) dstbox.push_back(std::move(out[i]));
  ranks_[static_cast<std::size_t>(src)].clock = new_clock;
  // The receiver (if parked on a matching recv) may have become runnable;
  // its worker probes it again at its next handoff.
  sched_->mark(dst);
}

LinkStats& Machine::link_stats(RankState& rs, int src) {
  return rs.links.ref(src);
}

/// Receiver-side recovery of a delivery the fault model corrupted on the
/// wire: prove detection (flip a real bit, watch the FNV-1a checksum
/// mismatch) on a private copy, since the delivered payload may share its
/// buffer with other ranks' messages, then model a NACK on the control
/// channel (kTagRetransmit) plus a retransmission from the sender's NIC
/// buffer, with exponential backoff in virtual time. The sender's *program*
/// is never interrupted — the wire copy is retransmitted below it, so the
/// whole round-trip is charged to the receiver as added latency. Throws
/// TransportError once the retry budget is exhausted.
void Machine::recover_corruption(int rank, const Message& m) {
  auto& rs = ranks_[rank];
  const int max_retries = faults_.config().max_retries;
  static constexpr std::size_t kNackBytes = 16;  // seq + checksum echo
  int attempt = 0;
  std::vector<std::byte> tainted;
  while (faults_.should_corrupt_delivery(rank)) {
    tainted = m.payload.copy();
    faults_.flip_random_bit(rank, tainted.data(), tainted.size());
    if (!tainted.empty() &&
        fnv1a(tainted.data(), tainted.size()) == m.checksum) {
      // Checksum collision: a single flipped bit always changes FNV-1a, so
      // this is unreachable; guard anyway rather than loop on a bad model.
      break;
    }
    ++attempt;
    auto& ls = link_stats(rs, m.src);
    ls.corruptions_detected += 1;
    if (attempt > max_retries)
      throw TransportError(
          "transport: message src=" + std::to_string(m.src) +
          " dst=" + std::to_string(m.dst) + " tag=" + std::to_string(m.tag) +
          " seq=" + std::to_string(m.seq) + " still corrupt after " +
          std::to_string(max_retries) + " retransmissions");
    ls.retries += 1;
    // NACK out, fresh copy back, doubling the wait each attempt.
    const double backoff =
        (cost_.message_cost(kNackBytes) + cost_.message_cost(m.bytes())) *
        static_cast<double>(1ULL << std::min(attempt - 1, 20));
    // The backoff advances the clock here; the caller's arrival-to-delivery
    // delta picks it up as comm time, so only traffic is counted directly.
    rs.clock += backoff;
    auto& pc = rs.stats.phase(rs.phase);
    pc.msgs_sent += 1;
    pc.bytes_sent += kNackBytes;
    pc.msgs_recv += 1;
    pc.bytes_recv += m.bytes();
    // iter slot carries the source rank so traces can attribute the retry
    // to a link; value is the virtual-time cost of this round-trip.
    note_mark(rank, "transport.retry", m.src, backoff);
  }
}

Message Machine::commit_recv(int rank, const Candidate& c, int src, int tag,
                             bool fp_payload) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  const bool mf = faults_.message_faults();
  if (mf && faults_.config().duplicate_prob > 0.0)
    rs.seen_seq.ref(c.src).insert(c.seq);
  auto it = rs.mailbox.begin() + c.pos;
  Message m = std::move(*it);
  rs.mailbox.erase(it);
  const double before = rs.clock;
  rs.clock = std::max<double>(rs.clock, m.arrival);
  if (cost_.recv_copy_mu > 0.0)
    rs.clock += cost_.recv_copy_mu * static_cast<double>(m.bytes());
  if (mf && faults_.config().corrupt_prob > 0.0) recover_corruption(rank, m);
  auto& pc = rs.stats.phase(rs.phase);
  pc.msgs_recv += 1;
  pc.bytes_recv += m.bytes();
  pc.comm_seconds += rs.clock - before;
  rs.waiting = false;
  if (observer_) {
    RecvEvent ev;
    ev.rank = rank;
    ev.want_src = src;
    ev.want_tag = tag;
    ev.fp_payload = fp_payload;
    ev.order_insensitive = rs.unordered_depth > 0;
    ev.phase = rs.phase;
    ev.collective_depth = rs.collective_depth;
    ev.vtime = rs.clock;
    // The matched message is already out of the mailbox: what is left
    // are the still-pending messages (race candidates among them).
    observer_->on_recv(m, ev, rs.mailbox);
  }
  return m;
}

Message Machine::do_recv(int rank, int src, int tag, bool fp_payload) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  if (strict_tags_ && tag != kAnyTag && tag < 0 && rs.collective_depth == 0)
    throw std::invalid_argument(
        "recv: explicit tag " + std::to_string(tag) +
        " is in the reserved (negative) collective tag space; user receives "
        "must use tags >= 0 or kAnyTag");
  check_crash(rank);
  EngineLock lk(sched_->engine_mutex());
  for (;;) {
    if (fail_recv_rank_ == rank) {
      fail_recv_rank_ = -1;
      throw_peer_failure(rank);
    }
    const Candidate c = find_candidate(rank, src, tag);
    if (c.pos >= 0 &&
        (force_commit_rank_ == rank || commit_safe(rank, src, c))) {
      if (force_commit_rank_ == rank) force_commit_rank_ = -1;
      return commit_recv(rank, c, src, tag, fp_payload);
    }
    rs.waiting = true;
    rs.want_src = src;
    rs.want_tag = tag;
    yield_from(rank, lk);
    rs.waiting = false;
  }
}

void Machine::charge(int rank, double seconds, bool is_compute) {
  auto& rs = ranks_[rank];
  if (is_compute && faults_.compute_faults())
    seconds *= faults_.compute_factor(rank);
  rs.clock += seconds;
  auto& pc = rs.stats.phase(rs.phase);
  if (is_compute)
    pc.compute_seconds += seconds;
  else
    pc.comm_seconds += seconds;
  // Compute boundaries are fail-stop points too: the stats above stay
  // booked — a real node burns the cycles before it dies.
  check_crash(rank);
}

// ---------------------------------------------------------------------------
// Fail-stop crash machinery. Crash points are pre-drawn per rank (FaultModel)
// and compared against the rank's own clock at rank-local boundaries, so the
// set of crashes reached by any quiescent state is a per-rank property of the
// program — identical at every worker count. All bookkeeping below runs under
// the engine mutex, at a stall, or touches only rank-owned state.
// ---------------------------------------------------------------------------

void Machine::check_crash(int rank) {
  if (!faults_.crash_faults()) return;
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  if (rs.crashed) return;
  const double now = rs.clock.load();
  if (now < faults_.crash_time(rank)) return;
  faults_.count_crash(rank);
  note_mark(rank, "fault.crash", -1, now);
  throw RankCrashed(rank, now);
}

void Machine::record_crash(int rank, double vtime) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  rs.crashed = true;
  rs.crash_vtime = vtime;
  ++crashed_count_;
  if (fail_recv_rank_ == rank) fail_recv_rank_ = -1;
  if (force_commit_rank_ == rank) force_commit_rank_ = -1;
}

int Machine::pick_failure_victim() const {
  if (crashed_count_ == 0) return -1;
  for (const auto& rs : ranks_) {
    if (rs.done || !rs.waiting) continue;
    for (const auto& peer : ranks_) {
      if (!peer.crashed) continue;
      if (!rs.acked_peer.find(peer.id)) return rs.id;
    }
  }
  return -1;
}

void Machine::throw_peer_failure(int rank) {
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  const double lease = faults_.config().crash_lease_seconds;
  std::vector<CrashRecord> fresh;
  double bound = rs.clock.load();
  for (const auto& peer : ranks_) {
    if (!peer.crashed || rs.acked_peer.find(peer.id)) continue;
    rs.acked_peer.ref(peer.id) = 1;
    fresh.push_back({peer.id, peer.crash_vtime});
    bound = std::max(bound, peer.crash_vtime + lease);
  }
  // Detection costs virtual time: the survivor sits out the dead peer's
  // lease before it may declare the failure, like a heartbeat timeout.
  const double before = rs.clock.load();
  rs.clock = bound;
  rs.stats.phase(rs.phase).comm_seconds += bound - before;
  rs.waiting = false;
  note_mark(rank, "fault.crash_detected", -1,
            static_cast<double>(fresh.size()));
  std::ostringstream os;
  os << "rank " << rank << " detected fail-stop of peer(s):";
  for (const auto& f : fresh)
    os << " rank " << f.rank << " (crashed at t=" << f.vtime << ")";
  throw PeerFailedError(os.str(), std::move(fresh), rank);
}

bool Machine::try_complete_membership() {
  bool any = false;
  for (const auto& rs : ranks_) {
    if (rs.done) continue;
    // A ready-but-not-yet-woken member is *leaving* the barrier, not in it;
    // counting it would let a quiescent stall build a second view before
    // every survivor consumed the first.
    if (!rs.in_membership || rs.membership_ready) return false;
    any = true;
  }
  if (!any) return false;

  MembershipView v;
  v.epoch = ++epoch_;
  const double lease = faults_.config().crash_lease_seconds;
  double agreed = 0.0;
  if (view_reported_.size() != static_cast<std::size_t>(nranks_))
    view_reported_.assign(static_cast<std::size_t>(nranks_), 0);
  for (const auto& rs : ranks_) {
    if (rs.crashed && !view_reported_[static_cast<std::size_t>(rs.id)]) {
      view_reported_[static_cast<std::size_t>(rs.id)] = 1;
      v.failed.push_back({rs.id, rs.crash_vtime});
      agreed = std::max(agreed, rs.crash_vtime + lease);
    }
    if (!rs.done) {
      v.survivors.push_back(rs.id);
      agreed = std::max(agreed, rs.clock.load());
    }
  }
  // Deterministic agreement cost: two binomial sweeps (propose + confirm)
  // of small control messages over the survivor group.
  static constexpr std::size_t kAgreeBytes = 16;
  int rounds = 0;
  while ((1 << rounds) < static_cast<int>(v.survivors.size())) ++rounds;
  v.vtime = agreed + 2.0 * rounds * cost_.message_cost(kAgreeBytes);

  for (auto& rs : ranks_) {
    if (rs.done) continue;
    auto& pc = rs.stats.phase(rs.phase);
    pc.comm_seconds += v.vtime - rs.clock.load();
    rs.clock = v.vtime;
    rs.epoch = v.epoch;
    for (const auto& peer : ranks_) {
      if (!peer.crashed) continue;
      rs.acked_peer.ref(peer.id) = 1;
      // Membership-epoch purge of dead-peer transport state: a crashed rank
      // never sends again and can never receive, so the dedup set and the
      // sequence counter indexed by it are dead weight. Before the tables
      // went sparse these slots (sized to the *initial* world) survived
      // every shrink; now the entries are dropped outright, so post-crash
      // state is indexed by live peers only.
      rs.seen_seq.erase(peer.id);
      rs.next_seq.erase(peer.id);
    }
    // Purge pre-agreement traffic: messages stamped with an older epoch can
    // never be matched again (their senders' epoch has moved on, or died).
    auto& box = rs.mailbox;
    for (auto it = box.begin(); it != box.end();)
      it = (it->epoch < v.epoch) ? box.erase(it) : std::next(it);
    rs.membership_ready = true;
    // Every survivor resumes at the same agreed time in the same epoch; the
    // mark fires at quiescence, so observer buffers are safe to touch.
    note_mark(rs.id, "membership.agree", v.epoch,
              static_cast<double>(v.survivors.size()));
  }
  pending_view_ = std::move(v);
  return true;
}

MembershipView Machine::do_agree(int rank) {
  check_crash(rank);
  EngineLock lk(sched_->engine_mutex());
  auto& rs = ranks_[static_cast<std::size_t>(rank)];
  rs.in_membership = true;
  while (!rs.membership_ready) yield_from(rank, lk);
  rs.in_membership = false;
  rs.membership_ready = false;
  return pending_view_;
}

void Machine::fiber_entry(void* slot) {
  auto* s = static_cast<Sched::Slot*>(slot);
  s->machine->leave(s->rank, s->machine->rank_main(s->rank));
}

std::optional<double> Machine::rank_main(int rank) {
  try {
    Comm comm(this, rank);
    (*sched_->program)(comm);
  } catch (const RankCrashed& c) {
    // Fail-stop: the rank simply stops. Not an error — survivors detect it
    // through the lease machinery and may recover.
    return c.vtime();
  } catch (const DeadlockError&) {
    // Already recorded globally; just unwind.
  } catch (...) {
    ranks_[static_cast<std::size_t>(rank)].error = std::current_exception();
  }
  return std::nullopt;
}

void Machine::work(int w) {
  Sched& s = *sched_;
  Sched::Worker& me = s.workers[static_cast<std::size_t>(w)];
  detail::Fiber main;  // this thread's own context
  me.main = &main;
  {
    EngineLock lk(s.engine_mutex());  // held by run() until all have started
    if (s.abort) return;
  }
  // Returns once every rank of the block has finished, or every one has
  // unwound from a deadlock.
  detail::Fiber::switch_to(main, s.fiber(me.lo));
}

void Machine::reset_run_state() {
  ranks_.assign(static_cast<std::size_t>(nranks_), RankState{});
  for (int i = 0; i < nranks_; ++i)
    ranks_[static_cast<std::size_t>(i)].id = i;
  if (observer_) observer_->on_run_start(nranks_);
  faults_.reset();  // identical fault streams on every run of this Machine
  deadlocked_ = false;
  force_commit_rank_ = -1;
  fail_recv_rank_ = -1;
  epoch_ = 0;
  crashed_count_ = 0;
  pending_view_ = MembershipView{};
  view_reported_.assign(static_cast<std::size_t>(nranks_), 0);
  deadlock_report_str_.clear();
  deadlock_blocked_.clear();
}

RunResult Machine::collect_results() {
  for (const auto& rs : ranks_)
    if (rs.error) std::rethrow_exception(rs.error);

  if (observer_) {
    std::vector<const std::deque<Message>*> boxes;
    std::vector<double> clocks;
    boxes.reserve(ranks_.size());
    clocks.reserve(ranks_.size());
    for (const auto& rs : ranks_) {
      boxes.push_back(&rs.mailbox);
      clocks.push_back(rs.clock.load());
    }
    observer_->on_run_end(boxes, clocks);
  }

  RunResult result;
  result.ranks.reserve(ranks_.size());
  for (const auto& rs : ranks_) {
    RankReport rep;
    rep.rank = rs.id;
    rep.clock = rs.clock;
    rep.stats = rs.stats;
    if (faults_.enabled()) rep.faults = faults_.counters(rs.id);
    // The report keeps its dense per-source shape (indexed by world rank,
    // serialized and compared slot-by-slot downstream); only the live
    // machine state is sparse. Materialized here, at collection time.
    if (!rs.links.empty()) {
      rep.links.assign(static_cast<std::size_t>(nranks_), LinkStats{});
      for (const auto& e : rs.links)
        rep.links[static_cast<std::size_t>(e.rank)] = e.value;
    }
    rep.crashed = rs.crashed;
    rep.crash_vtime = rs.crash_vtime;
    if (rs.crashed) result.crashes.push_back({rs.id, rs.crash_vtime});
    result.ranks.push_back(std::move(rep));
  }
  result.epochs = epoch_;
  return result;
}

std::size_t Machine::rank_transport_bytes(int rank) const {
  const auto& rs = ranks_[static_cast<std::size_t>(rank)];
  // Size-based (live entries, not capacity): a deterministic function of
  // the rank's consumed/sent message history, so the value is identical at
  // every worker count at the same program point — safe to export as a
  // metric that must stay bit-identical.
  using NextSeqMap = util::SparseRankMap<std::uint64_t>;
  using SeenMap = util::SparseRankMap<std::unordered_set<std::uint64_t>>;
  using LinkMap = util::SparseRankMap<LinkStats>;
  using AckMap = util::SparseRankMap<char>;
  std::size_t b = rs.next_seq.size() * sizeof(NextSeqMap::Entry) +
                  rs.seen_seq.size() * sizeof(SeenMap::Entry) +
                  rs.links.size() * sizeof(LinkMap::Entry) +
                  rs.acked_peer.size() * sizeof(AckMap::Entry);
  for (const auto& e : rs.seen_seq) {
    // Nodes + bucket array of the dedup set (libstdc++ layout estimate).
    b += e.value.size() * (sizeof(std::uint64_t) + 2 * sizeof(void*)) +
         e.value.bucket_count() * sizeof(void*);
  }
  return b;
}

std::size_t Machine::rank_transport_peers(int rank) const {
  const auto& rs = ranks_[static_cast<std::size_t>(rank)];
  // Union of the peers present in any of the four transport maps; each map
  // iterates in ascending rank order, so a 4-way ascending merge counts
  // distinct peers without any allocation.
  std::size_t n = 0;
  auto a = rs.next_seq.begin();
  auto b = rs.seen_seq.begin();
  auto c = rs.links.begin();
  auto d = rs.acked_peer.begin();
  constexpr int kEnd = std::numeric_limits<int>::max();
  for (;;) {
    const int ra = a != rs.next_seq.end() ? a->rank : kEnd;
    const int rb = b != rs.seen_seq.end() ? b->rank : kEnd;
    const int rc = c != rs.links.end() ? c->rank : kEnd;
    const int rd = d != rs.acked_peer.end() ? d->rank : kEnd;
    const int m = std::min(std::min(ra, rb), std::min(rc, rd));
    if (m == kEnd) return n;
    ++n;
    if (ra == m) ++a;
    if (rb == m) ++b;
    if (rc == m) ++c;
    if (rd == m) ++d;
  }
}

RunResult Machine::run(const std::function<void(Comm&)>& program) {
  reset_run_state();
  Sched sched(*this, program, std::min(workers_, nranks_));
  sched_ = &sched;
  std::vector<std::thread> threads;
  {
    EngineLock gate(sched.engine_mutex());
    try {
      for (int w = 1; w < sched.nworkers(); ++w)
        threads.emplace_back(&Machine::work, this, w);
    } catch (...) {
      sched.abort = true;
      gate.unlock();
      for (auto& t : threads) t.join();
      sched_ = nullptr;
      throw;
    }
  }
  work(0);
  for (auto& t : threads) t.join();
  sched_ = nullptr;
  if (deadlocked_)
    throw DeadlockError(deadlock_report_str_, std::move(deadlock_blocked_));
  return collect_results();
}

bool parallel_env_enabled() { return env_enabled("PICPAR_PARALLEL"); }

int resolve_workers(int requested) {
  int workers = requested;
  const int env = env_int("PICPAR_WORKERS", 0);
  if (env > 0) workers = env;
  if (workers <= 0)
    workers = static_cast<int>(std::thread::hardware_concurrency());
  return workers > 0 ? workers : 1;
}

}  // namespace picpar::sim
