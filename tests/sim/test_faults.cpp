// Fault injection and transport recovery: determinism, zero-overhead when
// disabled, checksum-detected corruption with retransmit, duplicate
// suppression, ordering guarantees, and deadlock diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "sim/comm.hpp"
#include "sim/faults.hpp"

namespace picpar::sim {
namespace {

/// Ring exchange with payload verification: each rank streams `count`
/// numbered vectors to its successor and checks the stream it receives from
/// its predecessor, then the group agrees on a sum.
void ring_program(Comm& c, int count) {
  const int p = c.size();
  const int next = (c.rank() + 1) % p;
  const int prev = (c.rank() + p - 1) % p;
  for (int k = 0; k < count; ++k) {
    std::vector<int> payload(8, c.rank() * 1000 + k);
    payload.back() = k;
    c.send(next, 3, payload);
  }
  for (int k = 0; k < count; ++k) {
    const auto got = c.recv<int>(prev, 3);
    ASSERT_EQ(got.size(), 8u);
    EXPECT_EQ(got[0], prev * 1000 + k) << "corrupted or reordered payload";
    EXPECT_EQ(got.back(), k) << "stream out of order";
  }
  const auto sum = c.allreduce_sum<long>(c.rank());
  EXPECT_EQ(sum, static_cast<long>(p) * (p - 1) / 2);
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].clock, b.ranks[r].clock) << "rank " << r;
    const auto ta = a.ranks[r].stats.total();
    const auto tb = b.ranks[r].stats.total();
    EXPECT_EQ(ta.msgs_sent, tb.msgs_sent);
    EXPECT_EQ(ta.bytes_sent, tb.bytes_sent);
    EXPECT_EQ(ta.msgs_recv, tb.msgs_recv);
    EXPECT_EQ(ta.bytes_recv, tb.bytes_recv);
    EXPECT_EQ(ta.comm_seconds, tb.comm_seconds);
    EXPECT_EQ(a.ranks[r].faults.total(), b.ranks[r].faults.total());
  }
}

// ---- collectives on a faulty fabric ---------------------------------------

FaultConfig all_message_faults() {
  FaultConfig fc;
  fc.corrupt_prob = 0.3;
  fc.duplicate_prob = 0.3;
  fc.latency_jitter_prob = 0.5;
  fc.latency_jitter_max_seconds = 5e-5;
  return fc;
}

/// Rounds of bcast (from a moving root), allreduce and allgatherv with
/// empty blocks, each checked on every rank against the values any rank
/// can compute on its own. A broadcast child receives the buffer its
/// parent received after the parent's corruption recovery ran, so a
/// recovery that flipped a shared byte instead of a private copy's would
/// show up on another rank.
void collectives_program(Comm& c) {
  const int p = c.size();
  const int r = c.rank();
  auto bcast_data = [](int root, int round) {
    std::vector<std::uint64_t> d;
    for (int i = 0; i < 40; ++i)
      d.push_back(static_cast<std::uint64_t>(root) * 1000003u +
                  static_cast<std::uint64_t>(round * 101 + i));
    return d;
  };
  auto block = [](int q, int round) {
    std::vector<int> b;
    if ((q + round) % 3 != 0)
      for (int i = 0; i <= q % 5; ++i) b.push_back(q * 100 + i + round);
    return b;
  };
  for (int round = 0; round < 3; ++round) {
    const int root = (round * 5) % p;
    const auto got = c.bcast(
        r == root ? bcast_data(root, round) : std::vector<std::uint64_t>{},
        root);
    EXPECT_EQ(got, bcast_data(root, round)) << "bcast, rank " << r;

    std::vector<long> v;
    for (int i = 0; i < 5; ++i) v.push_back(r * 7 + i + round);
    const auto sum =
        c.allreduce(std::move(v), [](long a, long b) { return a + b; });
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(sum[static_cast<std::size_t>(i)],
                7L * p * (p - 1) / 2 + static_cast<long>(p) * (i + round))
          << "allreduce, rank " << r;

    std::vector<int> expect;
    std::vector<std::size_t> expect_offsets;
    for (int q = 0; q < p; ++q) {
      expect_offsets.push_back(expect.size());
      const auto b = block(q, round);
      expect.insert(expect.end(), b.begin(), b.end());
    }
    std::vector<std::size_t> offsets;
    EXPECT_EQ(c.allgatherv(block(r, round), &offsets), expect)
        << "allgatherv, rank " << r;
    EXPECT_EQ(offsets, expect_offsets) << "allgatherv, rank " << r;
  }
  c.barrier();
}

class FaultyCollectives : public ::testing::TestWithParam<int> {};

TEST_P(FaultyCollectives, EveryRankGetsTheRootsBytes) {
  const int p = GetParam();
  Machine first(p, CostModel::cm5(), all_message_faults());
  Machine second(p, CostModel::cm5(), all_message_faults());
  const auto a = first.run(collectives_program);
  const auto b = second.run(collectives_program);
  // Clocks, traffic and fault counters repeat exactly.
  expect_identical(a, b);
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const LinkStats la = a.ranks[r].transport_total();
    const LinkStats lb = b.ranks[r].transport_total();
    EXPECT_EQ(la.retries, lb.retries) << "rank " << r;
    EXPECT_EQ(la.dup_discards, lb.dup_discards) << "rank " << r;
    EXPECT_EQ(la.corruptions_detected, lb.corruptions_detected) << "rank " << r;
  }
  // Every fault kind fired, so the checks above ran under all of them.
  const FaultCounters f = a.faults_total();
  EXPECT_GT(f.corrupted_deliveries, 0u);
  EXPECT_GT(f.duplicated_messages, 0u);
  EXPECT_GT(f.jittered_messages, 0u);
  EXPECT_GT(a.transport_total().corruptions_detected, 0u);
  EXPECT_GT(a.transport_total().dup_discards, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FaultyCollectives, ::testing::Values(3, 13, 64),
                         ::testing::PrintToStringParamName());

TEST(Faults, DisabledModelIsBitIdentical) {
  // A default FaultConfig must be indistinguishable from no model at all:
  // same clocks, same traffic, bit for bit.
  const int p = 6;
  Machine plain(p, CostModel::cm5());
  Machine configured(p, CostModel::cm5(), FaultConfig{});
  const auto a = plain.run([](Comm& c) { ring_program(c, 12); });
  const auto b = configured.run([](Comm& c) { ring_program(c, 12); });
  expect_identical(a, b);
  EXPECT_EQ(b.faults_total().total(), 0u);
  EXPECT_EQ(b.transport_total().retries, 0u);
}

TEST(Faults, SameSeedSameRun) {
  FaultConfig cfg;
  cfg.seed = 2026;
  cfg.transient_slow_prob = 0.1;
  cfg.latency_jitter_prob = 0.2;
  cfg.latency_jitter_max_seconds = 1e-3;
  cfg.corrupt_prob = 0.1;
  cfg.duplicate_prob = 0.1;

  Machine m1(5, CostModel::cm5(), cfg);
  Machine m2(5, CostModel::cm5(), cfg);
  const auto a = m1.run([](Comm& c) { ring_program(c, 20); });
  const auto b = m2.run([](Comm& c) { ring_program(c, 20); });
  expect_identical(a, b);
  EXPECT_GT(a.faults_total().total(), 0u);
}

TEST(Faults, RepeatedRunsOnOneMachineStayReproducible) {
  FaultConfig cfg;
  cfg.corrupt_prob = 0.15;
  cfg.duplicate_prob = 0.15;
  Machine m(4, CostModel::cm5(), cfg);
  const auto a = m.run([](Comm& c) { ring_program(c, 15); });
  const auto b = m.run([](Comm& c) { ring_program(c, 15); });
  expect_identical(a, b);
}

TEST(Faults, CorruptionIsDetectedAndRecovered) {
  FaultConfig cfg;
  cfg.corrupt_prob = 0.3;
  cfg.max_retries = 20;  // corruption re-drawn per retry; give headroom
  Machine m(4, CostModel::cm5(), cfg);
  // ring_program asserts every payload arrives intact — recovery must be
  // invisible to the application.
  const auto run = m.run([](Comm& c) { ring_program(c, 30); });

  const auto t = run.transport_total();
  const auto f = run.faults_total();
  EXPECT_GT(f.corrupted_deliveries, 0u) << "fault model never fired";
  EXPECT_EQ(t.corruptions_detected, f.corrupted_deliveries)
      << "every injected corruption must be caught by the checksum";
  EXPECT_EQ(t.retries, t.corruptions_detected);
}

TEST(Faults, RecoveryCostsVirtualTime) {
  const auto program = [](Comm& c) { ring_program(c, 25); };
  Machine clean(4, CostModel::cm5());
  FaultConfig cfg;
  cfg.corrupt_prob = 0.5;
  cfg.max_retries = 20;
  Machine faulty(4, CostModel::cm5(), cfg);
  const auto a = clean.run(program);
  const auto b = faulty.run(program);
  EXPECT_GT(b.makespan(), a.makespan())
      << "retransmits must show up as virtual-time overhead";
}

TEST(Faults, UnrecoverableLinkThrowsTransportError) {
  FaultConfig cfg;
  cfg.corrupt_prob = 1.0;  // every delivery attempt corrupted
  cfg.max_retries = 3;
  Machine m(2, CostModel::cm5(), cfg);
  EXPECT_THROW(m.run([](Comm& c) {
                 if (c.rank() == 0) c.send_value(1, 1, 42);
                 if (c.rank() == 1) (void)c.recv_value<int>(0, 1);
               }),
               TransportError);
}

TEST(Faults, DuplicatesAreDiscarded) {
  FaultConfig cfg;
  cfg.duplicate_prob = 1.0;  // duplicate every message
  Machine m(4, CostModel::cm5(), cfg);
  const auto run = m.run([](Comm& c) { ring_program(c, 20); });
  // Dups of the final message on a flow may sit undrained in the mailbox at
  // program end, so discards can trail injections — never exceed them.
  EXPECT_GT(run.transport_total().dup_discards, 0u);
  EXPECT_LE(run.transport_total().dup_discards,
            run.faults_total().duplicated_messages);
}

TEST(Faults, ReorderingPreservesPerFlowFifo) {
  FaultConfig cfg;
  cfg.latency_jitter_prob = 1.0;
  cfg.latency_jitter_max_seconds = 1e-3;
  Machine m(4, CostModel::cm5(), cfg);
  // Every send is jittered, so arrival times overtake send order. Matching
  // takes each flow's lowest sequence number, so two interleaved flows to
  // one destination each still arrive in send order.
  std::atomic<int> overtaken{0};
  m.run([&overtaken](Comm& c) {
    const int p = c.size();
    const int next = (c.rank() + 1) % p;
    const int prev = (c.rank() + p - 1) % p;
    for (int k = 0; k < 10; ++k) {
      c.send_value(next, 1, k);        // two interleaved flows to the same
      c.send_value(next, 2, 100 + k);  // destination: tags 1 and 2
    }
    double latest = 0.0;
    for (int k = 0; k < 10; ++k) {
      const Message msg = c.recv_msg(prev, 1);
      int v = -1;
      std::memcpy(&v, msg.payload.data(), sizeof v);
      EXPECT_EQ(v, k) << "flow (tag 1) reordered";
      if (msg.arrival < latest) ++overtaken;
      latest = std::max(latest, msg.arrival);
    }
    for (int k = 0; k < 10; ++k)
      EXPECT_EQ(c.recv_value<int>(prev, 2), 100 + k)
          << "flow (tag 2) reordered";
  });
  // Some message arrived before one sent ahead of it on its own flow, so
  // the order above came from matching, not from the arrival times.
  EXPECT_GT(overtaken.load(), 0);
}

TEST(Faults, StragglerRaisesMakespan) {
  const auto program = [](Comm& c) {
    for (int i = 0; i < 10; ++i) {
      c.charge(1e-3);
      c.barrier();
    }
  };
  Machine clean(4, CostModel::cm5());
  FaultConfig cfg;
  cfg.straggler_ranks = {2};
  cfg.straggler_factor = 3.0;
  Machine slow(4, CostModel::cm5(), cfg);
  const auto a = clean.run(program);
  const auto b = slow.run(program);
  EXPECT_GT(b.makespan(), a.makespan() * 1.5);
  // Only compute is slowed: rank 2's compute charge triples.
  EXPECT_NEAR(b.ranks[2].stats.total().compute_seconds,
              3.0 * a.ranks[2].stats.total().compute_seconds, 1e-12);
}

TEST(Faults, JitterDelaysButDelivers) {
  FaultConfig cfg;
  cfg.latency_jitter_prob = 1.0;
  cfg.latency_jitter_max_seconds = 1e-3;
  Machine m(4, CostModel::cm5(), cfg);
  const auto run = m.run([](Comm& c) { ring_program(c, 10); });
  EXPECT_GT(run.faults_total().jittered_messages, 0u);
}

TEST(FaultCounters, ModelCountsDrawsPerRankAndSumsTotals) {
  FaultConfig cfg;
  cfg.duplicate_prob = 1.0;
  cfg.corrupt_prob = 1.0;
  FaultModel model(cfg, 3);
  for (int k = 0; k < 5; ++k) EXPECT_TRUE(model.should_duplicate(0));
  for (int k = 0; k < 3; ++k) EXPECT_TRUE(model.should_corrupt_delivery(1));
  EXPECT_EQ(model.counters(0).duplicated_messages, 5u);
  EXPECT_EQ(model.counters(0).corrupted_deliveries, 0u);
  EXPECT_EQ(model.counters(1).corrupted_deliveries, 3u);
  EXPECT_EQ(model.counters(2).total(), 0u);
  const auto t = model.total_counters();
  EXPECT_EQ(t.duplicated_messages, 5u);
  EXPECT_EQ(t.corrupted_deliveries, 3u);
  EXPECT_EQ(t.total(), 8u);
  model.reset();
  EXPECT_EQ(model.total_counters().total(), 0u);
}

TEST(FaultCounters, SummaryNamesOnlyFiringKinds) {
  FaultCounters c;
  EXPECT_EQ(c.summary(), "clean");
  c.duplicated_messages = 4;
  c.corrupted_deliveries = 2;
  const auto s = c.summary();
  EXPECT_NE(s.find("duplicated=4"), std::string::npos) << s;
  EXPECT_NE(s.find("corrupted=2"), std::string::npos) << s;
  EXPECT_EQ(s.find("jittered"), std::string::npos) << s;
}

TEST(FaultCounters, DuplicationIsChargedToTheSender) {
  // Injection counters live on the rank that drew them: a one-way stream
  // books every duplicate on the sender, while the receiver's LinkStats
  // record the discards it performed.
  FaultConfig cfg;
  cfg.duplicate_prob = 1.0;
  Machine m(2, CostModel::cm5(), cfg);
  const auto run = m.run([](Comm& c) {
    const int n = 12;
    if (c.rank() == 0)
      for (int k = 0; k < n; ++k) c.send_value(1, 1, k);
    if (c.rank() == 1) {
      for (int k = 0; k < n; ++k) EXPECT_EQ(c.recv_value<int>(0, 1), k);
    }
  });
  EXPECT_EQ(run.ranks[0].faults.duplicated_messages, 12u);
  EXPECT_EQ(run.ranks[1].faults.duplicated_messages, 0u);
  // Dups are discarded while scanning for later matches; the dup of the
  // final message has no later receive to flush it.
  EXPECT_EQ(run.ranks[1].transport_total().dup_discards, 11u);
  EXPECT_EQ(run.ranks[0].transport_total().dup_discards, 0u);
}

TEST(FaultCounters, AggregateMatchesPerRankSum) {
  FaultConfig cfg;
  cfg.duplicate_prob = 0.5;
  cfg.latency_jitter_prob = 0.5;
  cfg.latency_jitter_max_seconds = 1e-4;
  Machine m(4, CostModel::cm5(), cfg);
  const auto run = m.run([](Comm& c) { ring_program(c, 10); });
  FaultCounters sum;
  for (const auto& r : run.ranks) sum += r.faults;
  const auto t = run.faults_total();
  EXPECT_EQ(t.duplicated_messages, sum.duplicated_messages);
  EXPECT_EQ(t.jittered_messages, sum.jittered_messages);
  EXPECT_EQ(t.total(), sum.total());
  EXPECT_GT(t.total(), 0u);
  EXPECT_EQ(t.summary(), sum.summary());
}

TEST(Faults, Fnv1aDetectsSingleBitFlips) {
  std::vector<std::byte> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(i * 7 + 1);
  const auto ref = fnv1a(buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      buf[i] ^= static_cast<std::byte>(1u << b);
      EXPECT_NE(fnv1a(buf.data(), buf.size()), ref)
          << "missed flip at byte " << i << " bit " << b;
      buf[i] ^= static_cast<std::byte>(1u << b);
    }
  }
  EXPECT_EQ(fnv1a(buf.data(), buf.size()), ref);
}

TEST(DeadlockDiagnostics, ReportsBlockedRanksAndWaitGraph) {
  Machine m(3, CostModel::cm5());
  try {
    m.run([](Comm& c) {
      // Rank 0 finishes; 1 and 2 each wait on a message that never comes.
      if (c.rank() == 1) (void)c.recv_value<int>(2, 7);
      if (c.rank() == 2) (void)c.recv_value<int>(1, 9);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=7"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=9"), std::string::npos) << what;

    ASSERT_EQ(e.blocked().size(), 2u);
    const auto& b1 = e.blocked()[0];
    const auto& b2 = e.blocked()[1];
    EXPECT_EQ(b1.rank, 1);
    EXPECT_EQ(b1.want_src, 2);
    EXPECT_EQ(b1.want_tag, 7);
    EXPECT_EQ(b2.rank, 2);
    EXPECT_EQ(b2.want_src, 1);
    EXPECT_EQ(b2.want_tag, 9);
  }
}

}  // namespace
}  // namespace picpar::sim
