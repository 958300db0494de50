// Fail-stop rank crashes: scheduled and probabilistic crash injection,
// virtual-time lease detection, shrink-to-survivors membership agreement,
// crashed-peer deadlock diagnostics, and bit-identical determinism of the
// whole recovery trajectory across seeds and execution modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/comm.hpp"
#include "sim/faults.hpp"

namespace picpar::sim {
namespace {

/// What one rank saw during a resilient run, for cross-run comparison.
struct RankTrace {
  std::vector<MembershipView> views;
  long last_sum = -1;
  int rounds_done = 0;
};

/// Iterated neighbor exchange + allreduce that survives fail-stop crashes:
/// on PeerFailedError the survivors agree on membership, resynchronize the
/// round counter (survivors throw from different rounds; pre-agreement
/// messages are purged with the old epoch) and continue on the shrunken
/// group. Crashed ranks simply stop — RankCrashed is not a std::exception
/// and unwinds straight through the catch below.
void resilient_rounds(Comm& c, int rounds, RankTrace& tr) {
  int r = 0;
  for (;;) {
    try {
      while (r < rounds) {
        const int p = c.size();
        if (p > 1) {
          const int next = (c.rank() + 1) % p;
          const int prev = (c.rank() + p - 1) % p;
          c.send(next, 5, std::vector<int>{c.world_rank(), r});
          const auto got = c.recv<int>(prev, 5);
          ASSERT_EQ(got.size(), 2u);
          EXPECT_EQ(got[1], r) << "round desynchronized after recovery";
        }
        tr.last_sum = c.allreduce_sum<long>(c.world_rank());
        ++r;
        tr.rounds_done = r;
      }
      return;
    } catch (const PeerFailedError& e) {
      EXPECT_FALSE(e.failed().empty());
      const MembershipView v = c.agree_on_membership();
      tr.views.push_back(v);
      r = c.allreduce_min(r);
    }
  }
}

TEST(Crash, ScheduledCrashStopsRankAndSurvivorsFinish) {
  const int p = 4;
  FaultConfig cfg;
  cfg.crash_schedule = {{2, 1e-4}};
  Machine m(p, CostModel::cm5(), cfg);
  std::vector<RankTrace> traces(p);
  const auto run =
      m.run([&](Comm& c) { resilient_rounds(c, 10, traces[c.world_rank()]); });

  ASSERT_EQ(run.crashes.size(), 1u);
  EXPECT_EQ(run.crashes[0].rank, 2);
  EXPECT_GE(run.crashes[0].vtime, 1e-4);
  EXPECT_EQ(run.epochs, 1);
  EXPECT_TRUE(run.ranks[2].crashed);
  EXPECT_FALSE(run.ranks[0].crashed);

  // Every survivor finished all rounds; the final allreduce ran on the
  // shrunken group (world ranks 0+1+3 = 4).
  for (int r : {0, 1, 3}) {
    EXPECT_EQ(traces[r].rounds_done, 10) << "rank " << r;
    EXPECT_EQ(traces[r].last_sum, 4) << "rank " << r;
    ASSERT_EQ(traces[r].views.size(), 1u) << "rank " << r;
    const auto& v = traces[r].views[0];
    EXPECT_EQ(v.epoch, 1);
    EXPECT_EQ(v.survivors, (std::vector<int>{0, 1, 3}));
    ASSERT_EQ(v.failed.size(), 1u);
    EXPECT_EQ(v.failed[0].rank, 2);
  }
  // All survivors agreed on one identical view (same resume vtime).
  EXPECT_EQ(traces[0].views[0].vtime, traces[1].views[0].vtime);
  EXPECT_EQ(traces[0].views[0].vtime, traces[3].views[0].vtime);
}

TEST(Crash, DetectionRespectsTheLease) {
  // Survivors may not declare the peer dead before crash time + lease: the
  // agreed resume time must sit past the lease expiry, and detection is
  // charged as virtual time (a heartbeat timeout, not a free oracle).
  const int p = 3;
  const double lease = 0.25;
  FaultConfig cfg;
  cfg.crash_schedule = {{1, 1e-4}};
  cfg.crash_lease_seconds = lease;
  Machine m(p, CostModel::cm5(), cfg);
  std::vector<RankTrace> traces(p);
  const auto run =
      m.run([&](Comm& c) { resilient_rounds(c, 5, traces[c.world_rank()]); });

  ASSERT_EQ(run.crashes.size(), 1u);
  const double crash_t = run.crashes[0].vtime;
  for (int r : {0, 2}) {
    ASSERT_EQ(traces[r].views.size(), 1u);
    EXPECT_GE(traces[r].views[0].vtime, crash_t + lease) << "rank " << r;
    EXPECT_GE(run.ranks[r].clock, crash_t + lease) << "rank " << r;
  }
}

TEST(Crash, CascadeShrinksTwice) {
  // Two crashes far enough apart that the group shrinks in two separate
  // membership epochs; the final allreduce runs on the last two survivors.
  const int p = 4;
  FaultConfig cfg;
  cfg.crash_schedule = {{1, 1e-4}, {3, 0.5}};
  cfg.crash_lease_seconds = 1e-3;
  Machine m(p, CostModel::cm5(), cfg);
  std::vector<RankTrace> traces(p);
  const auto run =
      m.run([&](Comm& c) { resilient_rounds(c, 2000, traces[c.world_rank()]); });

  ASSERT_EQ(run.crashes.size(), 2u);
  EXPECT_EQ(run.epochs, 2);
  for (int r : {0, 2}) {
    ASSERT_EQ(traces[r].views.size(), 2u) << "rank " << r;
    EXPECT_EQ(traces[r].views[1].survivors, (std::vector<int>{0, 2}));
    EXPECT_EQ(traces[r].rounds_done, 2000);
    EXPECT_EQ(traces[r].last_sum, 2);  // world ranks 0 + 2
  }
}

TEST(Crash, DeadlockReportNamesCrashedPeer) {
  // A survivor that keeps waiting on a dead peer after acknowledging the
  // crash (never calling agree_on_membership) is a deadlock — and the
  // diagnostics must say the peer CRASHED, not show an opaque cycle.
  const int p = 3;
  FaultConfig cfg;
  cfg.crash_schedule = {{0, 1e-4}};
  Machine m(p, CostModel::cm5(), cfg);
  try {
    m.run([&](Comm& c) {
      if (c.world_rank() == 0) {
        for (;;) c.charge_ops(1 << 20);  // runs into its crash point
      }
      try {
        c.recv<int>(0, 7);
      } catch (const PeerFailedError&) {
      }
      c.recv<int>(0, 7);  // crash already acked: this can never complete
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("CRASHED"), std::string::npos);
    bool saw_crashed_wait = false;
    for (const auto& b : e.blocked())
      if (b.want_src == 0 && b.want_src_crashed) saw_crashed_wait = true;
    EXPECT_TRUE(saw_crashed_wait)
        << "blocked info must flag the wait-on-crashed-peer edge";
  }
}

TEST(Crash, CrashCountersAppearInSummary) {
  FaultConfig cfg;
  cfg.crash_schedule = {{1, 1e-4}};
  Machine m(3, CostModel::cm5(), cfg);
  std::vector<RankTrace> traces(3);
  const auto run =
      m.run([&](Comm& c) { resilient_rounds(c, 5, traces[c.world_rank()]); });
  const auto f = run.faults_total();
  EXPECT_EQ(f.crashes, 1u);
  EXPECT_NE(f.summary().find("crashes=1"), std::string::npos);
  EXPECT_EQ(run.ranks[1].faults.crashes, 1u);
}

void expect_same_result(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].rank, b.crashes[i].rank);
    EXPECT_EQ(a.crashes[i].vtime, b.crashes[i].vtime);
  }
  EXPECT_EQ(a.epochs, b.epochs);
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].clock, b.ranks[r].clock) << "rank " << r;
    EXPECT_EQ(a.ranks[r].crashed, b.ranks[r].crashed) << "rank " << r;
    const auto ta = a.ranks[r].stats.total();
    const auto tb = b.ranks[r].stats.total();
    EXPECT_EQ(ta.msgs_sent, tb.msgs_sent) << "rank " << r;
    EXPECT_EQ(ta.bytes_sent, tb.bytes_sent) << "rank " << r;
    EXPECT_EQ(ta.msgs_recv, tb.msgs_recv) << "rank " << r;
  }
}

void expect_same_traces(const std::vector<RankTrace>& a,
                        const std::vector<RankTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].last_sum, b[r].last_sum) << "rank " << r;
    EXPECT_EQ(a[r].rounds_done, b[r].rounds_done) << "rank " << r;
    ASSERT_EQ(a[r].views.size(), b[r].views.size()) << "rank " << r;
    for (std::size_t v = 0; v < a[r].views.size(); ++v) {
      EXPECT_EQ(a[r].views[v].epoch, b[r].views[v].epoch);
      EXPECT_EQ(a[r].views[v].vtime, b[r].views[v].vtime);
      EXPECT_EQ(a[r].views[v].survivors, b[r].views[v].survivors);
    }
  }
}

TEST(Crash, ProbabilisticCrashesAreSeedDeterministic) {
  FaultConfig cfg;
  cfg.seed = 1;  // draws exactly two crashers at p=5, prob=0.5
  cfg.crash_prob = 0.5;
  cfg.crash_vtime_max = 0.02;  // within ~200 rounds of cm5-cost exchange
  const int p = 5;

  std::vector<RankTrace> ta(p), tb(p);
  Machine m1(p, CostModel::cm5(), cfg);
  Machine m2(p, CostModel::cm5(), cfg);
  const auto a =
      m1.run([&](Comm& c) { resilient_rounds(c, 200, ta[c.world_rank()]); });
  const auto b =
      m2.run([&](Comm& c) { resilient_rounds(c, 200, tb[c.world_rank()]); });
  EXPECT_GT(a.crashes.size(), 0u) << "seed 1 should produce >= 1 crash";
  expect_same_result(a, b);
  expect_same_traces(ta, tb);
}

TEST(Crash, SequentialAndParallelRecoveryAreBitIdentical) {
  FaultConfig cfg;
  cfg.crash_schedule = {{2, 1e-3}, {0, 0.05}};
  const int p = 4;

  std::vector<RankTrace> ts(p), tp(p);
  Machine seq(p, CostModel::cm5(), cfg);
  const auto a =
      seq.run([&](Comm& c) { resilient_rounds(c, 500, ts[c.world_rank()]); });

  Machine par(p, CostModel::cm5(), cfg);
  par.set_workers(4);
  const auto b =
      par.run([&](Comm& c) { resilient_rounds(c, 500, tp[c.world_rank()]); });

  ASSERT_EQ(a.crashes.size(), 2u);
  expect_same_result(a, b);
  expect_same_traces(ts, tp);
}

TEST(Crash, FarFutureCrashNeverFires) {
  // A schedule the run never reaches must leave the result identical to a
  // crash-free machine: crash support may not perturb clean executions.
  const int p = 4;
  const auto program = [](Comm& c) {
    RankTrace tr;
    resilient_rounds(c, 20, tr);
  };
  Machine plain(p, CostModel::cm5());
  FaultConfig cfg;
  cfg.crash_schedule = {{1, 1e9}};
  Machine armed(p, CostModel::cm5(), cfg);
  const auto a = plain.run(program);
  const auto b = armed.run(program);
  EXPECT_TRUE(b.crashes.empty());
  EXPECT_EQ(b.epochs, 0);
  expect_same_result(a, b);
}

TEST(Crash, ConfigValidation) {
  FaultConfig bad;
  bad.crash_schedule = {{7, 0.1}};
  EXPECT_THROW(FaultModel(bad, 4), std::invalid_argument);
  bad.crash_schedule = {{-1, 0.1}};
  EXPECT_THROW(FaultModel(bad, 4), std::invalid_argument);
  bad.crash_schedule = {{1, -0.5}};
  EXPECT_THROW(FaultModel(bad, 4), std::invalid_argument);
  FaultConfig neg_lease;
  neg_lease.crash_schedule = {{1, 0.1}};
  neg_lease.crash_lease_seconds = -1.0;
  EXPECT_THROW(FaultModel(neg_lease, 4), std::invalid_argument);

  // Every probability lies in [0, 1]; jitter, the crash window and the
  // lease are finite and >= 0; the slowdown factors are finite and > 0.
  // The error names the field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* name;
    double FaultConfig::*field;
    std::vector<double> bad;
  } ranges[] = {
      {"transient_slow_prob", &FaultConfig::transient_slow_prob,
       {-0.1, 1.5, nan}},
      {"latency_jitter_prob", &FaultConfig::latency_jitter_prob,
       {-0.1, 1.5, nan}},
      {"corrupt_prob", &FaultConfig::corrupt_prob, {-0.1, 1.5, nan}},
      {"duplicate_prob", &FaultConfig::duplicate_prob, {-0.1, 1.5, nan}},
      {"memory_fault_prob", &FaultConfig::memory_fault_prob, {-0.1, 1.5, nan}},
      {"crash_prob", &FaultConfig::crash_prob, {-1.0, 2.0, nan}},
      {"latency_jitter_max_seconds", &FaultConfig::latency_jitter_max_seconds,
       {-1e-4, inf, nan}},
      {"crash_vtime_max", &FaultConfig::crash_vtime_max, {-1.0, inf, nan}},
      {"crash_lease_seconds", &FaultConfig::crash_lease_seconds,
       {-1.0, inf, nan}},
      {"transient_slow_factor", &FaultConfig::transient_slow_factor,
       {0.0, -2.0, inf, nan}},
      {"straggler_factor", &FaultConfig::straggler_factor,
       {0.0, -2.0, inf, nan}},
  };
  for (const auto& r : ranges) {
    for (const double v : r.bad) {
      FaultConfig cfg;
      cfg.*r.field = v;
      try {
        (void)FaultModel(cfg, 4);
        ADD_FAILURE() << r.name << " = " << v << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(r.name), std::string::npos)
            << e.what();
      }
    }
  }
  // A scheduled crash at a NaN or infinite time would never fire.
  for (const double v : {nan, inf}) {
    FaultConfig cfg;
    cfg.crash_schedule = {{1, v}};
    try {
      (void)FaultModel(cfg, 4);
      ADD_FAILURE() << "crash_schedule vtime = " << v << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("crash_schedule vtime must be "
                                           "finite and >= 0"),
                std::string::npos)
          << e.what();
    }
  }
  // The edges of each range are accepted.
  FaultConfig edges;
  edges.transient_slow_prob = 1.0;
  edges.crash_prob = 1.0;
  edges.crash_vtime_max = 0.0;
  edges.straggler_factor = 1e-3;
  EXPECT_NO_THROW(FaultModel(edges, 4));
}

}  // namespace
}  // namespace picpar::sim
