// Large-p scaling: the machine must stay bit-identical between one worker
// and several at 512 and 1024 simulated ranks, including through fail-stop
// crash recovery — the world sizes the sparse per-peer transport state
// exists for. Workloads are
// deliberately small per rank (the point is the rank count, not the work).
#include <gtest/gtest.h>

#include <vector>

#include "pic/simulation.hpp"
#include "sim/comm.hpp"
#include "sim/faults.hpp"
#include "worker_counts.hpp"

namespace picpar {
namespace {

using sim::Comm;
using sim::CostModel;
using sim::FaultConfig;
using sim::Machine;

/// Nearest-neighbor ring plus one allreduce per round: sparse point-to-point
/// traffic with a global synchronization, the PIC loop's communication shape.
void ring_allreduce_rounds(Comm& c, int rounds) {
  const int n = c.size();
  for (int i = 0; i < rounds; ++i) {
    if (n > 1) {
      const int right = (c.rank() + 1) % n;
      const int left = (c.rank() + n - 1) % n;
      c.send(right, 11, std::vector<long>{c.rank() + i});
      (void)c.recv<long>(left, 11);
    }
    (void)c.allreduce_sum<long>(1);
  }
}

TEST(LargeP, BitIdentityAt512) {
  picpar::testing::run_at_worker_counts(
      [] { return new Machine(512, CostModel::cm5()); },
      [](Comm& c) { ring_allreduce_rounds(c, 3); });
}

TEST(LargeP, BitIdentityAt1024) {
  picpar::testing::run_at_worker_counts(
      [] { return new Machine(1024, CostModel::cm5()); },
      [](Comm& c) { ring_allreduce_rounds(c, 2); });
}

TEST(LargeP, CrashRecoveryBitIdentityAt512) {
  // One scheduled crash mid-run; survivors agree on membership and finish
  // on the shrunken group. The whole recovery trajectory — detection
  // times, purged state, post-shrink traffic — must be bit-identical
  // across worker counts.
  const auto make = [] {
    FaultConfig cfg;
    cfg.crash_schedule = {{100, 3e-4}};
    return new Machine(512, CostModel::cm5(), cfg);
  };
  const auto program = [](Comm& c) {
    int done = 0;
    for (;;) {
      try {
        while (done < 3) {
          ring_allreduce_rounds(c, 1);
          ++done;
        }
        return;
      } catch (const sim::PeerFailedError&) {
        (void)c.agree_on_membership();
        done = c.allreduce_min(done);
      }
    }
  };
  const auto run = picpar::testing::run_at_worker_counts(make, program);
  ASSERT_EQ(run.crashes.size(), 1u);
  EXPECT_EQ(run.crashes[0].rank, 100);
}

TEST(LargeP, PicPipelineBitIdentityAt1024) {
  // Full PIC pipeline at 1024 ranks on a small mesh: ~2 cells and ~2
  // particles per rank. Physics and accounting must match exactly between
  // worker counts; per-rank memory gauges are size-based and deterministic, so
  // they are part of the comparison (via the machine reports).
  pic::PicParams p;
  p.grid = mesh::GridDesc{64, 32};
  p.nranks = 1024;
  p.init.total = 2048;
  p.iterations = 2;
  p.policy = "periodic:1";

  pic::PicParams ps = p;
  ps.exec.parallel = false;
  const auto seq = pic::run_pic(ps);

  pic::PicParams pp = p;
  pp.exec.parallel = true;
  pp.exec.workers = 4;
  const auto par = pic::run_pic(pp);

  EXPECT_EQ(seq.final_particles, par.final_particles);
  EXPECT_EQ(seq.field_energy, par.field_energy);
  EXPECT_EQ(seq.kinetic_energy, par.kinetic_energy);
  EXPECT_EQ(seq.total_charge, par.total_charge);
  EXPECT_EQ(seq.total_seconds, par.total_seconds);
  EXPECT_EQ(seq.redistributions, par.redistributions);
  picpar::testing::expect_identical(seq.machine, par.machine);
}

}  // namespace
}  // namespace picpar
