// Helpers for the worker-count equivalence suite: run one program with one
// worker and again at several worker counts, and demand bit-identical
// RunResults. Doubles are compared with ==: the guarantee is that every
// worker count executes the *same* arithmetic in the *same* order, not
// that the results land within a tolerance.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "sim/comm.hpp"
#include "sim/machine.hpp"

namespace picpar::testing {

inline void expect_identical(const sim::RunResult& seq,
                             const sim::RunResult& par) {
  ASSERT_EQ(seq.ranks.size(), par.ranks.size());
  for (std::size_t r = 0; r < seq.ranks.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const auto& a = seq.ranks[r];
    const auto& b = par.ranks[r];
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.clock, b.clock);
    for (int p = 0; p < sim::kNumPhases; ++p) {
      SCOPED_TRACE("phase " + std::to_string(p));
      const auto& pa = a.stats.phase(static_cast<sim::Phase>(p));
      const auto& pb = b.stats.phase(static_cast<sim::Phase>(p));
      EXPECT_EQ(pa.msgs_sent, pb.msgs_sent);
      EXPECT_EQ(pa.bytes_sent, pb.bytes_sent);
      EXPECT_EQ(pa.msgs_recv, pb.msgs_recv);
      EXPECT_EQ(pa.bytes_recv, pb.bytes_recv);
      EXPECT_EQ(pa.comm_seconds, pb.comm_seconds);
      EXPECT_EQ(pa.compute_seconds, pb.compute_seconds);
    }
    EXPECT_EQ(a.faults.transient_slowdowns, b.faults.transient_slowdowns);
    EXPECT_EQ(a.faults.jittered_messages, b.faults.jittered_messages);
    EXPECT_EQ(a.faults.corrupted_deliveries, b.faults.corrupted_deliveries);
    EXPECT_EQ(a.faults.duplicated_messages, b.faults.duplicated_messages);
    EXPECT_EQ(a.faults.memory_faults, b.faults.memory_faults);
    ASSERT_EQ(a.links.size(), b.links.size());
    for (std::size_t s = 0; s < a.links.size(); ++s) {
      EXPECT_EQ(a.links[s].retries, b.links[s].retries);
      EXPECT_EQ(a.links[s].dup_discards, b.links[s].dup_discards);
      EXPECT_EQ(a.links[s].corruptions_detected, b.links[s].corruptions_detected);
    }
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.crash_vtime, b.crash_vtime);
  }
  EXPECT_EQ(seq.epochs, par.epochs);
}

/// Worker counts every comparison runs at besides one. Three and seven
/// divide none of the usual rank counts, so the blocks differ in size.
inline constexpr int kWorkerCounts[] = {2, 3, 4, 7};

/// Run `program` with one worker and at every count of kWorkerCounts, each
/// on a fresh machine built by `make`, and require bit-identical results.
/// Returns the one-worker result for further assertions.
inline sim::RunResult run_at_worker_counts(
    const std::function<sim::Machine*()>& make,
    const std::function<void(sim::Comm&)>& program) {
  std::unique_ptr<sim::Machine> one(make());
  const sim::RunResult seq = one->run(program);
  for (const int w : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(w));
    std::unique_ptr<sim::Machine> m(make());
    m->set_workers(w);
    expect_identical(seq, m->run(program));
  }
  return seq;
}

}  // namespace picpar::testing
