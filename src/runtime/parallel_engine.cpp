#include "runtime/parallel_engine.hpp"

#include <stdexcept>

#include "util/env.hpp"

namespace picpar::runtime {

int resolve_workers(const ParallelConfig& cfg) {
  int workers = cfg.workers;
  const int env = env_int("PICPAR_WORKERS", 0);
  if (env > 0) workers = env;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  return workers;
}

bool parallel_env_enabled() { return env_enabled("PICPAR_PARALLEL"); }

sim::RunResult ParallelEngine::run(
    sim::Machine& m, const std::function<void(sim::Comm&)>& program) {
  m.reset_run_state();
  nranks_ = m.nranks_;
  slots_free_ = resolve_workers(cfg_);
  parked_ = 0;
  finished_ = 0;
  holds_slot_.assign(static_cast<std::size_t>(nranks_), 0);

  m.prt_ = this;
  threads_.clear();
  threads_.reserve(static_cast<std::size_t>(nranks_));
  for (int i = 0; i < nranks_; ++i)
    threads_.emplace_back([this, &m, i, &program] {
      rank_thread(m, i, program);
    });
  for (auto& t : threads_) t.join();
  threads_.clear();
  m.prt_ = nullptr;

  if (m.deadlocked_)
    throw sim::DeadlockError(m.deadlock_report_str_,
                             std::move(m.deadlock_blocked_));
  return m.collect_results();
}

void ParallelEngine::rank_thread(
    sim::Machine& m, int rank,
    const std::function<void(sim::Comm&)>& program) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    acquire_slot(lk);
    holds_slot_[static_cast<std::size_t>(rank)] = 1;
  }
  bool did_crash = false;
  double crash_vt = 0.0;
  try {
    sim::Comm comm(&m, rank);
    program(comm);
  } catch (const sim::RankCrashed& c) {
    // Fail-stop: the thread retires quietly. The crash is recorded under
    // the engine mutex below, *before* the rank counts as finished, so any
    // quiescent stall that observes this rank as done also observes its
    // crash — the same invariant the sequential scheduler keeps.
    did_crash = true;
    crash_vt = c.vtime();
  } catch (const sim::DeadlockError&) {
    // Recorded globally at detection; this rank just unwinds. Its slot was
    // released when it parked (the throw comes out of park_for_progress
    // before the slot is re-acquired).
  } catch (...) {
    m.ranks_[static_cast<std::size_t>(rank)].error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (did_crash) m.record_crash(rank, crash_vt);
    m.ranks_[static_cast<std::size_t>(rank)].done = true;
    --m.live_;
    ++finished_;
    if (holds_slot_[static_cast<std::size_t>(rank)]) {
      holds_slot_[static_cast<std::size_t>(rank)] = 0;
      release_slot();
    }
    resolve_if_quiescent(m);
    cv_.notify_all();  // one fewer rank bounds commit_safe; re-evaluate
  }
}

void ParallelEngine::send(sim::Machine& m, int src, int dst, int tag,
                          sim::Payload payload) {
  // The sender-side half (clock charge, stats, envelope, observer, fault
  // draws) touches only rank-owned state, so it runs outside the engine
  // mutex; the destination-mailbox insert and the clock publication take
  // the lock. Ordering matters twice over: the advanced clock must land
  // after the enqueue (a lower-bound read must never see the post-charge
  // clock while the message it bounds is still in flight) and before the
  // notify (a parked rank re-evaluating commit_safe on this wakeup must
  // see the new bound, or it would sleep through its only notification).
  sim::Message out[2];
  double new_clock = 0.0;
  bool reorder_first = false;
  const int n = m.build_send(src, dst, tag, std::move(payload), out,
                             &new_clock, &reorder_first);
  {
    std::lock_guard<std::mutex> lk(mu_);
    m.enqueue_messages(out, n, reorder_first);
    m.ranks_[static_cast<std::size_t>(src)].clock = new_clock;
    cv_.notify_all();
  }
}

sim::Message ParallelEngine::recv(sim::Machine& m, int rank, int src, int tag,
                                  bool fp_payload) {
  auto& rs = m.ranks_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (m.fail_recv_rank_ == rank) {
      m.fail_recv_rank_ = -1;
      m.throw_peer_failure(rank);  // throws PeerFailedError; lk unlocks
    }
    const auto c = m.find_candidate(rank, src, tag);
    if (c.pos >= 0 &&
        (m.force_commit_rank_ == rank || m.commit_safe(rank, src, c))) {
      if (m.force_commit_rank_ == rank) m.force_commit_rank_ = -1;
      sim::Message msg = m.commit_recv(rank, c, src, tag, fp_payload);
      cv_.notify_all();  // receiver clock advanced; bounds may have loosened
      return msg;
    }
    rs.waiting = true;
    rs.want_src = src;
    rs.want_tag = tag;
    park_for_progress(lk, m, rank);
    rs.waiting = false;
  }
}

bool ParallelEngine::iprobe(sim::Machine& m, int rank, int src, int tag) {
  // Physical mailbox scan, like the sequential engine. Deterministic only
  // when the probed message is causally sequenced before the probe (see
  // DESIGN.md); the lock makes it thread-safe, not order-independent.
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& msg : m.ranks_[static_cast<std::size_t>(rank)].mailbox)
    if (m.match(msg, src, tag)) return true;
  return false;
}

void ParallelEngine::park_for_progress(std::unique_lock<std::mutex>& lk,
                                       sim::Machine& m, int rank) {
  ++parked_;
  holds_slot_[static_cast<std::size_t>(rank)] = 0;
  release_slot();
  resolve_if_quiescent(m);
  // Wait on this rank's own progress condition, not a global "something
  // changed" generation counter. The distinction is load-bearing: with a
  // broadcast counter, a wakeup that is not progress for *this* rank makes
  // the predicate true at wait entry, so the waiter cycles without ever
  // releasing the mutex and starves the rank the wakeup was actually for.
  // Here a non-deliverable rank's predicate stays false — it blocks and
  // releases the mutex — and every true predicate leads to a commit, a
  // forced commit, or a deadlock unwind: all finite progress.
  cv_.wait(lk, [&] {
    return m.deadlocked_ || m.force_commit_rank_ == rank ||
           m.fail_recv_rank_ == rank || m.recv_deliverable(rank);
  });
  --parked_;
  if (m.deadlocked_)
    throw sim::DeadlockError("rank " + std::to_string(rank) +
                             " unwound due to deadlock");
  acquire_slot(lk);
  holds_slot_[static_cast<std::size_t>(rank)] = 1;
}

sim::MembershipView ParallelEngine::agree(sim::Machine& m, int rank) {
  // Mirrors the sequential do_agree: park in the membership barrier
  // (counted as parked for quiescence), wait for the barrier to complete
  // at a stall resolution, then consume the agreed view.
  auto& rs = m.ranks_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lk(mu_);
  rs.in_membership = true;
  ++parked_;
  holds_slot_[static_cast<std::size_t>(rank)] = 0;
  release_slot();
  resolve_if_quiescent(m);
  cv_.wait(lk, [&] { return rs.membership_ready || m.deadlocked_; });
  --parked_;
  if (m.deadlocked_)
    throw sim::DeadlockError("rank " + std::to_string(rank) +
                             " unwound due to deadlock");
  acquire_slot(lk);
  holds_slot_[static_cast<std::size_t>(rank)] = 1;
  rs.in_membership = false;
  rs.membership_ready = false;
  return m.pending_view_;
}

void ParallelEngine::resolve_if_quiescent(sim::Machine& m) {
  // Called with mu_ held whenever a rank parks or finishes. Quiescence —
  // every rank parked or finished — is the only state where the stall rule
  // may fire: no worker can be about to enqueue a send, because enqueues
  // happen under this mutex and every thread is accounted for. This is
  // what makes deadlock detection race-free under the parallel scheduler.
  if (parked_ + finished_ < nranks_) return;
  if (m.live_ <= 0) return;  // normal completion; nothing to decide
  // A previous resolution may still be pending consumption (the designated
  // rank has been notified but not yet woken): renotify and stand down —
  // re-running the ladder would double-resolve the same stall.
  if (m.force_commit_rank_ >= 0 || m.fail_recv_rank_ >= 0) {
    cv_.notify_all();
    return;
  }
  for (auto& rs : m.ranks_) {
    if (!rs.done && rs.in_membership && rs.membership_ready) {
      cv_.notify_all();
      return;
    }
  }
  // A parked rank may already be deliverable without having been notified:
  // clock charges advance rank-owned clocks outside the engine lock, so the
  // bound that unblocks a peer may only become decisive when the charging
  // rank next parks — i.e. exactly here. Renotify and let that rank's own
  // wait predicate pick it up; everyone else re-blocks.
  for (auto& rs : m.ranks_) {
    if (rs.done || !rs.waiting) continue;
    if (m.recv_deliverable(rs.id)) {
      cv_.notify_all();
      return;
    }
  }
  // Same resolution ladder as the sequential scheduler's yield_from:
  // force-commit the global-min candidate, else elect a peer-failure
  // victim, else complete a full membership barrier, else deadlock.
  const int forced = m.stall_pick();
  if (forced >= 0) {
    m.force_commit_rank_ = forced;
  } else if (const int victim = m.pick_failure_victim(); victim >= 0) {
    m.fail_recv_rank_ = victim;
  } else if (m.try_complete_membership()) {
    // Members are marked ready; the notify below wakes them.
  } else if (!m.deadlocked_) {
    m.deadlocked_ = true;
    m.deadlock_report_str_ = m.deadlock_report();
    m.deadlock_blocked_ = m.blocked_ranks();
  }
  cv_.notify_all();
}

void ParallelEngine::acquire_slot(std::unique_lock<std::mutex>& lk) {
  slot_cv_.wait(lk, [&] { return slots_free_ > 0; });
  --slots_free_;
}

void ParallelEngine::release_slot() {
  ++slots_free_;
  slot_cv_.notify_one();
}

void use_parallel(sim::Machine& m, ParallelConfig cfg) {
  m.set_parallel_runner(
      [cfg](sim::Machine& mm,
            const std::function<void(sim::Comm&)>& program) -> sim::RunResult {
        ParallelEngine engine(cfg);
        return engine.run(mm, program);
      });
  m.set_exec_mode(sim::ExecMode::kParallel);
}

void configure(sim::Machine& m, sim::ExecMode mode, ParallelConfig cfg) {
  if (mode == sim::ExecMode::kParallel) {
    use_parallel(m, cfg);
  } else {
    m.set_exec_mode(sim::ExecMode::kSequential);
  }
}

bool configure_from_env(sim::Machine& m) {
  if (!parallel_env_enabled()) return false;
  use_parallel(m, ParallelConfig{});
  return true;
}

}  // namespace picpar::runtime
