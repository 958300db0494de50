// Happens-before analyzer fixtures: seeded races, tag-space violations,
// phase misattribution, floating-point reduction-order sensitivity, the
// OrderInsensitive annotation, clean collectives, and the two-run
// determinism audit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/audit.hpp"
#include "sim/comm.hpp"

namespace picpar::analysis {
namespace {

using sim::Comm;
using sim::CostModel;
using sim::kAnySource;
using sim::kAnyTag;
using sim::Machine;
using sim::Phase;

/// Two concurrent senders into one wildcard receiver: the canonical
/// message race. Nothing orders rank 1's send against rank 2's.
void racy_program(Comm& c) {
  if (c.rank() == 1 || c.rank() == 2) c.send_value<int>(0, 5, c.rank());
  if (c.rank() == 0) {
    (void)c.recv<int>(kAnySource, 5);
    (void)c.recv<int>(kAnySource, 5);
  }
}

TEST(Analyzer, DetectsSeededMessageRace) {
  Machine m(3, CostModel::zero());
  Analyzer a;
  m.set_observer(&a);
  m.run(racy_program);
  EXPECT_GE(a.count(FindingKind::kMessageRace), 1u);
  EXPECT_EQ(a.count(FindingKind::kTagViolation), 0u);
  EXPECT_EQ(a.count(FindingKind::kPhaseMismatch), 0u);
  ASSERT_FALSE(a.findings().empty());
  const auto& f = a.findings()[0];
  EXPECT_EQ(f.kind, FindingKind::kMessageRace);
  EXPECT_EQ(f.rank, 0);
  // Both senders appear in the provenance, in either role.
  EXPECT_TRUE((f.src == 1 && f.other_src == 2) ||
              (f.src == 2 && f.other_src == 1));
  EXPECT_EQ(f.tag, 5);
  EXPECT_NE(a.report().find("message-race"), std::string::npos);
}

TEST(Analyzer, OrderedSendsAreNotARace) {
  // Rank 2 sends only after hearing from rank 1 via rank 0's relay, so the
  // two sends into the wildcard receives are happens-before ordered.
  Machine m(3, CostModel::zero());
  Analyzer a;
  m.set_observer(&a);
  m.run([](Comm& c) {
    if (c.rank() == 1) c.send_value<int>(0, 5, 1);
    if (c.rank() == 0) {
      (void)c.recv<int>(kAnySource, 5);
      c.send_value<int>(2, 6, 0);  // carries rank 1's send in its clock
      (void)c.recv<int>(kAnySource, 5);
    }
    if (c.rank() == 2) {
      (void)c.recv<int>(0, 6);
      c.send_value<int>(0, 5, 2);
    }
  });
  EXPECT_EQ(a.total(), 0u) << a.report();
}

TEST(Analyzer, SpecificSourceReceivesAreNotARace) {
  // Same traffic as racy_program but with named sources: matching is
  // deterministic, so no race.
  Machine m(3, CostModel::zero());
  Analyzer a;
  m.set_observer(&a);
  m.run([](Comm& c) {
    if (c.rank() == 1 || c.rank() == 2) c.send_value<int>(0, 5, c.rank());
    if (c.rank() == 0) {
      (void)c.recv<int>(1, 5);
      (void)c.recv<int>(2, 5);
    }
  });
  EXPECT_EQ(a.total(), 0u) << a.report();
}

TEST(Analyzer, OrderInsensitiveScopeSuppressesRaceFindings) {
  Machine m(3, CostModel::zero());
  Analyzer a;
  m.set_observer(&a);
  m.run([](Comm& c) {
    if (c.rank() == 1 || c.rank() == 2) c.send_value<int>(0, 5, c.rank());
    if (c.rank() == 0) {
      Comm::OrderInsensitive scope(c);  // results keyed by source
      int src = kAnySource;
      (void)c.recv<int>(kAnySource, 5, &src);
      (void)c.recv<int>(kAnySource, 5, &src);
    }
  });
  EXPECT_EQ(a.total(), 0u) << a.report();
}

TEST(Analyzer, FlagsFloatingPointReductionOrder) {
  // Wildcard receives of floating-point payloads feeding an accumulation:
  // the race is classified as reduction-order sensitivity.
  Machine m(3, CostModel::zero());
  Analyzer a;
  m.set_observer(&a);
  m.run([](Comm& c) {
    if (c.rank() == 1 || c.rank() == 2)
      c.send_value<double>(0, 7, 0.1 * c.rank());
    if (c.rank() == 0) {
      double acc = 0.0;
      acc += c.recv_value<double>(kAnySource, 7);
      acc += c.recv_value<double>(kAnySource, 7);
      (void)acc;
    }
  });
  EXPECT_GE(a.count(FindingKind::kReductionOrder), 1u);
  EXPECT_EQ(a.count(FindingKind::kMessageRace), 0u);
  EXPECT_NE(a.report().find("floating-point"), std::string::npos);
}

TEST(Analyzer, FlagsReservedTagUse) {
  Machine m(2, CostModel::zero());
  m.set_strict_tags(false);  // record findings instead of throwing
  Analyzer a;
  m.set_observer(&a);
  m.run([](Comm& c) {
    if (c.rank() == 0) c.send_value<int>(1, -7, 42);
    if (c.rank() == 1) (void)c.recv<int>(0, kAnyTag);
  });
  // Send-side (reserved tag) and receive-side (stolen message) both fire.
  EXPECT_GE(a.count(FindingKind::kTagViolation), 2u);
  EXPECT_NE(a.report().find("reserved tag"), std::string::npos);
  EXPECT_NE(a.report().find("stolen"), std::string::npos);
}

TEST(Analyzer, FlagsWildcardReceiveThatCanStealCollectiveTraffic) {
  // A retransmit-channel message is pending while user code posts a
  // wildcard-tag receive: the next such receive could consume it.
  Machine m(2, CostModel::zero());
  m.set_strict_tags(false);
  Analyzer a;
  m.set_observer(&a);
  m.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, Comm::kTagRetransmit, 1);
      c.send_value<int>(1, 3, 2);
      (void)c.recv_value<int>(1, 9);  // keep rank 0 alive until 1 is done
    }
    if (c.rank() == 1) {
      (void)c.recv<int>(kAnySource, kAnyTag);  // matches FIFO head
      (void)c.recv<int>(kAnySource, kAnyTag);
      c.send_value<int>(0, 9, 0);
    }
  });
  EXPECT_GE(a.count(FindingKind::kTagViolation), 1u) << a.report();
}

TEST(Analyzer, FlagsPhaseMisattribution) {
  // Sender charges the message to scatter; the receiver books it under
  // gather — the per-phase traffic tables disagree.
  Machine m(2, CostModel::zero());
  Analyzer a;
  m.set_observer(&a);
  m.run([](Comm& c) {
    if (c.rank() == 0) {
      c.set_phase(Phase::kScatter);
      c.send_value<int>(1, 4, 1);
    }
    if (c.rank() == 1) {
      c.set_phase(Phase::kGather);
      (void)c.recv<int>(0, 4);
    }
  });
  EXPECT_EQ(a.count(FindingKind::kPhaseMismatch), 1u);
  const auto& f = a.findings().at(0);
  EXPECT_EQ(f.phase, Phase::kGather);
  EXPECT_EQ(f.other_phase, Phase::kScatter);
}

TEST(Analyzer, CleanCollectivesProduceZeroFindings) {
  // Every collective in the library, including all_to_many's internal
  // wildcard receives, is race-free by construction; the analyzer must not
  // cry wolf on any of it.
  const int p = 7;
  Machine m(p, CostModel::cm5());
  Analyzer a;
  m.set_observer(&a);
  m.run([](Comm& c) {
    const int p2 = c.size();
    c.barrier();
    const auto b = c.bcast_value<int>(c.rank() == 2 ? 99 : 0, 2);
    EXPECT_EQ(b, 99);
    const auto s = c.allreduce_sum<long>(c.rank());
    EXPECT_EQ(s, static_cast<long>(p2) * (p2 - 1) / 2);
    (void)c.exscan_sum<int>(1);
    const auto g = c.allgather(c.rank());
    EXPECT_EQ(static_cast<int>(g.size()), p2);
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p2));
    for (int d = 0; d < p2; ++d)
      if ((c.rank() + d) % 2 == 0)
        out[static_cast<std::size_t>(d)] = {c.rank(), d};
    (void)c.all_to_many(std::move(out));
    c.barrier();
  });
  EXPECT_EQ(a.total(), 0u) << a.report();
  EXPECT_GT(a.events(), 0u);
}

TEST(Analyzer, ObserverDoesNotPerturbVirtualTime) {
  // Attaching the analyzer must not change the simulated execution: the
  // happens-before layer rides on real time, not virtual time.
  const auto program = [](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    c.send_value<int>(next, 1, c.rank());
    (void)c.recv<int>((c.rank() + c.size() - 1) % c.size(), 1);
    (void)c.allreduce_sum<int>(1);
  };
  Machine plain(5, CostModel::cm5());
  const auto base = plain.run(program);
  Machine observed(5, CostModel::cm5());
  Analyzer a;
  observed.set_observer(&a);
  const auto got = observed.run(program);
  ASSERT_EQ(base.ranks.size(), got.ranks.size());
  for (std::size_t r = 0; r < base.ranks.size(); ++r)
    EXPECT_EQ(base.ranks[r].clock, got.ranks[r].clock) << "rank " << r;
  EXPECT_EQ(a.total(), 0u);
}

TEST(Analyzer, FindingsAreDeduplicatedAndCapped) {
  Analyzer::Options opt;
  opt.max_findings = 1;
  Machine m(3, CostModel::zero());
  Analyzer a(opt);
  m.set_observer(&a);
  for (int i = 0; i < 3; ++i) m.run(racy_program);
  EXPECT_GE(a.total(), 3u);                 // every detection counted
  EXPECT_EQ(a.findings().size(), 1u);       // stored once
  EXPECT_NE(a.report().find("deduplicated"), std::string::npos);
  a.clear_findings();
  EXPECT_EQ(a.total(), 0u);
  EXPECT_TRUE(a.findings().empty());
}

TEST(Audit, DeterministicProgramPasses) {
  Machine m(4, CostModel::cm5());
  Analyzer a;
  const auto res = audit_determinism(m, a, a, [](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    c.send_value<int>(next, 2, c.rank());
    (void)c.recv<int>(kAnySource, 2);
    (void)c.allreduce_sum<int>(c.rank());
  });
  EXPECT_TRUE(res.deterministic()) << res.summary();
  EXPECT_EQ(res.fingerprint_first, res.fingerprint_second);
  EXPECT_EQ(res.events_first, res.events_second);
  EXPECT_GT(res.events_first, 0u);
  EXPECT_NE(res.summary().find("PASS"), std::string::npos);
}

TEST(Audit, CatchesHiddenStateSteeringCommunication) {
  // The program's traffic depends on state that survives between runs —
  // exactly the class of bug (leaked caches, pointer-keyed iteration) the
  // fingerprint diff exists to catch.
  Machine m(2, CostModel::cm5());
  Analyzer a;
  int generation = 0;
  const auto res = audit_determinism(
      m, a, a,
      [&generation](Comm& c) {
        const int msgs = 1 + generation;
        if (c.rank() == 0)
          for (int k = 0; k < msgs; ++k) c.send_value<int>(1, 3, k);
        if (c.rank() == 1)
          for (int k = 0; k < msgs; ++k) (void)c.recv<int>(0, 3);
      },
      [&generation] { ++generation; });
  EXPECT_FALSE(res.deterministic()) << res.summary();
  EXPECT_NE(res.events_first, res.events_second);
  EXPECT_NE(res.summary().find("FAIL"), std::string::npos);
}

TEST(Audit, RestoresPreviousObserver) {
  Machine m(2, CostModel::zero());
  Analyzer outer;
  m.set_observer(&outer);
  Analyzer a;
  (void)audit_determinism(m, a, a, [](Comm& c) {
    if (c.rank() == 0) c.send_value<int>(1, 1, 0);
    if (c.rank() == 1) (void)c.recv<int>(0, 1);
  });
  EXPECT_EQ(m.observer(), &outer);
}

TEST(Audit, EnvFlagParsing) {
  // Only presence with a non-"0" value opts in.
  ASSERT_EQ(unsetenv("PICPAR_ANALYZE"), 0);
  EXPECT_FALSE(analyzer_env_enabled());
  ASSERT_EQ(setenv("PICPAR_ANALYZE", "0", 1), 0);
  EXPECT_FALSE(analyzer_env_enabled());
  ASSERT_EQ(setenv("PICPAR_ANALYZE", "1", 1), 0);
  EXPECT_TRUE(analyzer_env_enabled());
  ASSERT_EQ(setenv("PICPAR_ANALYZE", "", 1), 0);
  EXPECT_FALSE(analyzer_env_enabled());
  ASSERT_EQ(unsetenv("PICPAR_ANALYZE"), 0);
}

}  // namespace
}  // namespace picpar::analysis
