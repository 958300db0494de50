// Deadlock detection with several workers. The hazard specific to threads:
// a naive detector can scan "everyone blocked" while a worker is a few
// instructions away from enqueueing the send that would unblock the
// system. The engine only evaluates the stall rule under its mutex once
// every worker is out of work, so that race cannot happen; these fixtures
// seed both the false-alarm shape and real deadlocks and demand the exact
// one-worker behavior (including the structured wait graph).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "worker_counts.hpp"

namespace picpar {
namespace {

using sim::BlockedInfo;
using sim::Comm;
using sim::CostModel;
using sim::DeadlockError;
using sim::Machine;

std::vector<BlockedInfo> run_expect_deadlock(
    Machine& m, const std::function<void(Comm&)>& program) {
  std::vector<BlockedInfo> blocked;
  try {
    m.run(program);
    ADD_FAILURE() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    blocked = e.blocked();
  }
  std::sort(blocked.begin(), blocked.end(),
            [](const BlockedInfo& a, const BlockedInfo& b) {
              return a.rank < b.rank;
            });
  return blocked;
}

void expect_same_wait_graph(const std::vector<BlockedInfo>& a,
                            const std::vector<BlockedInfo>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    EXPECT_EQ(a[i].rank, b[i].rank);
    EXPECT_EQ(a[i].want_src, b[i].want_src);
    EXPECT_EQ(a[i].want_tag, b[i].want_tag);
    EXPECT_EQ(a[i].mailbox_size, b[i].mailbox_size);
  }
}

/// Require the same wait graph at every worker count as with one worker.
void expect_same_deadlock_at_worker_counts(
    const std::vector<BlockedInfo>& seq_blocked,
    const std::function<Machine*()>& make,
    const std::function<void(Comm&)>& program) {
  for (const int w : picpar::testing::kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    std::unique_ptr<Machine> par(make());
    par->set_workers(w);
    expect_same_wait_graph(seq_blocked, run_expect_deadlock(*par, program));
  }
}

TEST(ParallelDeadlock, CycleDeadlockMatchesSequential) {
  auto program = [](Comm& c) {
    // Every rank waits on its clockwise neighbor; nobody ever sends.
    (void)c.recv<int>((c.rank() + 1) % c.size(), 9);
  };
  Machine seq(4, CostModel::cm5());
  const auto seq_blocked = run_expect_deadlock(seq, program);
  ASSERT_EQ(seq_blocked.size(), 4u);
  expect_same_deadlock_at_worker_counts(
      seq_blocked, [] { return new Machine(4, CostModel::cm5()); }, program);
}

// At p = 13 every block split is uneven. Half the ranks finish a ring
// round first, the rest deadlock on a cycle with unmatched messages
// pending, so the graph mixes done and blocked ranks across blocks.
TEST(ParallelDeadlock, CycleDeadlockAtP13) {
  auto program = [](Comm& c) {
    const int n = c.size();
    c.send_value((c.rank() + 1) % n, 1, c.rank());
    (void)c.recv_value<int>((c.rank() + n - 1) % n, 1);
    if (c.rank() % 2 == 0) return;
    c.send_value((c.rank() + 2) % n, 8, c.rank());
    (void)c.recv<int>((c.rank() + 2) % n, 9);
  };
  Machine seq(13, CostModel::cm5());
  const auto seq_blocked = run_expect_deadlock(seq, program);
  ASSERT_EQ(seq_blocked.size(), 6u);
  expect_same_deadlock_at_worker_counts(
      seq_blocked, [] { return new Machine(13, CostModel::cm5()); }, program);
}

TEST(ParallelDeadlock, PendingMailboxSizesSurviveIntoReport) {
  auto program = [](Comm& c) {
    // Rank 0 parks one unmatched message in rank 1's mailbox before the
    // cycle deadlocks; the wait graph must report it identically.
    if (c.rank() == 0) c.send_value(1, 8, 123);
    (void)c.recv<int>((c.rank() + 1) % c.size(), 9);
  };
  Machine seq(3, CostModel::cm5());
  const auto seq_blocked = run_expect_deadlock(seq, program);
  ASSERT_EQ(seq_blocked.size(), 3u);
  EXPECT_EQ(seq_blocked[1].mailbox_size, 1u);

  expect_same_deadlock_at_worker_counts(
      seq_blocked, [] { return new Machine(3, CostModel::cm5()); }, program);
}

// The false-alarm shape: every other rank is already blocked while one
// slow rank is still computing; its eventual send resolves the system. A
// detector that raced the worker would throw here.
TEST(ParallelDeadlock, SlowSenderIsNotADeadlock) {
  auto program = [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 200; ++i) c.charge_ops(50);
      for (int d = 1; d < c.size(); ++d) c.send_value(d, 4, d * 11);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 4), c.rank() * 11);
    }
  };
  picpar::testing::run_at_worker_counts(
      [] { return new Machine(6, CostModel::cm5()); }, program);
}

// Same shape, but the slow rank exits without sending: deadlock must be
// declared only after it finishes, with the surviving waiters in the
// report — in both modes.
TEST(ParallelDeadlock, SlowFinisherStillYieldsDeadlock) {
  auto program = [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 200; ++i) c.charge_ops(50);
      return;  // never sends
    }
    (void)c.recv<int>(0, 4);
  };
  Machine seq(4, CostModel::cm5());
  const auto seq_blocked = run_expect_deadlock(seq, program);
  ASSERT_EQ(seq_blocked.size(), 3u);

  expect_same_deadlock_at_worker_counts(
      seq_blocked, [] { return new Machine(4, CostModel::cm5()); }, program);
}

}  // namespace
}  // namespace picpar
