// Parallel execution engine for sim::Machine: ranks run concurrently on
// real cores, bounded by a worker-slot pool, between communication points.
//
// All nondeterminism is squeezed out at the Machine's matching layer — a
// receive commits the pending message with minimum (arrival, src, seq)
// key, and a conservative lower-bound-timestamp rule (null-message style,
// keyed on CostModel latency) decides when a wildcard receive may safely
// commit. The engine therefore only decides *when* work happens, never
// *what* the result is: a parallel run is bit-identical to the sequential
// reference scheduler, RankReport for RankReport.
//
// Synchronization model:
//   * one OS thread per rank, but at most `workers` threads execute
//     program code at a time (execution slots = the bounded worker pool;
//     the slot wait queue is the ready queue);
//   * one engine mutex guards mailboxes, park/wake state, and commit
//     decisions; compute charges run outside it (rank-owned state, atomic
//     virtual clocks);
//   * blocked receives park on their own progress predicate (candidate
//     deliverable, force-committed, or deadlock) and re-evaluate it on
//     every state change (enqueue, commit, park, finish);
//   * when every live rank is parked and nothing is safely deliverable,
//     the last parker resolves the stall under the mutex — no racing a
//     worker that is about to enqueue a send — by force-committing the
//     globally minimal candidate, or declaring deadlock when no candidate
//     exists (the same deadlock set as the sequential scheduler).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/comm.hpp"
#include "sim/machine.hpp"

namespace picpar::runtime {

struct ParallelConfig {
  /// Max ranks executing concurrently; 0 = host hardware concurrency.
  int workers = 0;
};

class ParallelEngine final : public sim::ParallelRuntimeHooks {
public:
  explicit ParallelEngine(ParallelConfig cfg = {}) : cfg_(cfg) {}

  /// Run one program to completion in parallel mode. One engine instance
  /// drives one run (Machine::run creates a fresh one per call through the
  /// installed runner).
  sim::RunResult run(sim::Machine& m,
                     const std::function<void(sim::Comm&)>& program);

  // ---- sim::ParallelRuntimeHooks ----
  void send(sim::Machine& m, int src, int dst, int tag,
            sim::Payload payload) override;
  sim::Message recv(sim::Machine& m, int rank, int src, int tag,
                    bool fp_payload) override;
  bool iprobe(sim::Machine& m, int rank, int src, int tag) override;
  sim::MembershipView agree(sim::Machine& m, int rank) override;

private:
  void rank_thread(sim::Machine& m, int rank,
                   const std::function<void(sim::Comm&)>& program);
  /// Park the calling rank until it can make progress — its candidate is
  /// deliverable or it was force-committed — or deadlock is declared
  /// (which throws sim::DeadlockError). Releases the caller's execution
  /// slot while parked and re-acquires it before returning.
  void park_for_progress(std::unique_lock<std::mutex>& lk, sim::Machine& m,
                         int rank);
  /// If every live rank is parked, decide progress under the lock: wake
  /// deliverable receivers, else force the global-min candidate, else
  /// declare deadlock.
  void resolve_if_quiescent(sim::Machine& m);
  void acquire_slot(std::unique_lock<std::mutex>& lk);
  void release_slot();

  ParallelConfig cfg_;
  std::mutex mu_;
  std::condition_variable cv_;       ///< progress wakeups for parked ranks
  std::condition_variable slot_cv_;  ///< execution-slot handoff
  int slots_free_ = 0;
  int parked_ = 0;    ///< ranks blocked in a receive
  int finished_ = 0;  ///< ranks whose program returned or unwound
  int nranks_ = 0;
  /// Whether each rank currently holds an execution slot (a rank unwinding
  /// from a deadlock parked first, so it must not release a second time).
  std::vector<char> holds_slot_;
  std::vector<std::thread> threads_;
};

/// True when the PICPAR_PARALLEL environment variable selects parallel
/// execution (set and not "0").
bool parallel_env_enabled();

/// Execution-slot count resolved from config and PICPAR_WORKERS (which
/// overrides cfg.workers when set); 0 falls back to hardware concurrency.
int resolve_workers(const ParallelConfig& cfg);

/// Install the parallel engine on a machine and switch it to parallel
/// mode. Each Machine::run then executes on a fresh engine instance.
void use_parallel(sim::Machine& m, ParallelConfig cfg = {});

/// Apply an execution mode: parallel installs the engine, sequential just
/// sets the mode (the reference scheduler needs no engine).
void configure(sim::Machine& m, sim::ExecMode mode, ParallelConfig cfg = {});

/// Configure from the environment (PICPAR_PARALLEL / PICPAR_WORKERS);
/// returns true when parallel mode was selected.
bool configure_from_env(sim::Machine& m);

}  // namespace picpar::runtime
