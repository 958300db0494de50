// Tracer behavior on bare machines: span construction, flow matching,
// marks, the record's budget, the record the analyzer also reads, and
// byte-identical exports between the sequential and parallel execution
// engines.
#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "analysis/analyzer.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "trace/chrome_trace.hpp"

namespace picpar::trace {
namespace {

using sim::Comm;
using sim::CostModel;
using sim::Machine;
using sim::Phase;

TEST(Tracer, SpansFollowPhaseChangesAndCloseAtFinalClock) {
  Machine m(2, CostModel::cm5());
  RunRecord record;
  m.set_observer(&record);
  const auto run = m.run([](Comm& c) {
    c.set_phase(Phase::kScatter);
    c.charge(1e-3);
    c.set_phase(Phase::kPush);
    c.charge(2e-3);
    c.set_phase(Phase::kOther);
  });

  const Tracer tracer(record);
  const TraceData& d = tracer.data();
  ASSERT_EQ(d.nranks, 2);
  // Per rank: kOther head, kScatter, kPush, kOther tail = 4 spans.
  ASSERT_EQ(d.spans.size(), 8u);
  for (int r = 0; r < 2; ++r) {
    const Span* s = &d.spans[static_cast<std::size_t>(r) * 4];
    EXPECT_EQ(s[0].phase, Phase::kOther);
    EXPECT_EQ(s[0].t0, 0.0);
    EXPECT_EQ(s[1].phase, Phase::kScatter);
    EXPECT_DOUBLE_EQ(s[1].t1 - s[1].t0, 1e-3);
    EXPECT_EQ(s[2].phase, Phase::kPush);
    EXPECT_DOUBLE_EQ(s[2].t1 - s[2].t0, 2e-3);
    EXPECT_EQ(s[3].phase, Phase::kOther);
    // The tail span always closes at the rank's final clock.
    EXPECT_EQ(s[3].t1, run.ranks[static_cast<std::size_t>(r)].clock);
    // Spans tile the timeline with no gaps.
    for (int k = 1; k < 4; ++k) EXPECT_EQ(s[k].t0, s[k - 1].t1);
  }
  // Three actual phase changes per rank and nothing else: the machine
  // only fires on changes, never on redundant set_phase calls.
  EXPECT_EQ(tracer.events(), 6u);
}

TEST(Tracer, FlowsMatchSendsToReceivesByLinkSeq) {
  Machine m(3, CostModel::cm5());
  RunRecord record;
  m.set_observer(&record);
  m.run([](Comm& c) {
    c.set_phase(Phase::kScatter);
    if (c.rank() == 0) {
      c.send_value(1, 7, 1.0);
      c.send_value(1, 7, 2.0);
      c.send_value(2, 9, 3.0);
    } else {
      (void)c.recv<double>(0);
      if (c.rank() == 1) (void)c.recv<double>(0);
    }
  });

  const Tracer tracer(record);
  const TraceData& d = tracer.data();
  ASSERT_EQ(d.flows.size(), 3u);
  // Receiver-major merge order: rank 1's flows first (seq 0 then 1).
  EXPECT_EQ(d.flows[0].src, 0);
  EXPECT_EQ(d.flows[0].dst, 1);
  EXPECT_EQ(d.flows[0].seq, 0u);
  EXPECT_EQ(d.flows[0].tag, 7);
  EXPECT_EQ(d.flows[0].bytes, sizeof(double));
  EXPECT_EQ(d.flows[1].seq, 1u);
  EXPECT_EQ(d.flows[2].dst, 2);
  EXPECT_EQ(d.flows[2].tag, 9);
  for (const Flow& f : d.flows) {
    EXPECT_EQ(f.send_phase, Phase::kScatter);
    EXPECT_EQ(f.recv_phase, Phase::kScatter);
    EXPECT_LE(f.t_send, f.t_recv);
    EXPECT_FALSE(f.collective);
  }
  EXPECT_EQ(d.unreceived_msgs, 0u);
}

TEST(Tracer, UnreceivedMessagesAreCounted) {
  Machine m(2, CostModel::cm5());
  RunRecord record;
  m.set_observer(&record);
  m.run([](Comm& c) {
    if (c.rank() == 0) c.send_value(1, 1, 42);
  });
  const Tracer tracer(record);
  EXPECT_EQ(tracer.data().flows.size(), 0u);
  EXPECT_EQ(tracer.data().unreceived_msgs, 1u);
}

TEST(Tracer, MarksCarryPayloadAndRespectCaps) {
  Machine m(2, CostModel::cm5());
  RunRecord record(2);  // a budget of two events per rank
  m.set_observer(&record);
  m.run([](Comm& c) {
    if (c.rank() == 0)
      for (int i = 0; i < 5; ++i) c.mark("test.mark", i, i * 0.5);
  });

  const Tracer tracer(record);
  const TraceData& d = tracer.data();
  ASSERT_EQ(d.marks.size(), 2u);
  EXPECT_EQ(d.marks[0].name, "test.mark");
  EXPECT_EQ(d.marks[0].rank, 0);
  EXPECT_EQ(d.marks[1].iter, 1);
  EXPECT_DOUBLE_EQ(d.marks[1].value, 0.5);
  EXPECT_EQ(d.dropped_marks, 3u);
}

TEST(Tracer, TransportRetriesAppearAsMarks) {
  sim::FaultConfig fc;
  fc.seed = 99;
  fc.corrupt_prob = 0.4;
  Machine m(2, CostModel::cm5(), fc);
  RunRecord record;
  m.set_observer(&record);
  const auto run = m.run([](Comm& c) {
    if (c.rank() == 0)
      for (int i = 0; i < 40; ++i) c.send_value(1, 1, i);
    else
      for (int i = 0; i < 40; ++i) (void)c.recv<int>(0);
  });
  const Tracer tracer(record);

  std::uint64_t retry_marks = 0;
  for (const Mark& mk : tracer.data().marks)
    if (mk.name == kMarkTransportRetry) {
      ++retry_marks;
      EXPECT_EQ(mk.rank, 1);   // receiver-side recovery
      EXPECT_EQ(mk.iter, 0);   // iter slot carries the source rank
      EXPECT_GT(mk.value, 0.0);
    }
  const auto total = run.transport_total();
  EXPECT_GT(total.retries, 0u);
  EXPECT_EQ(retry_marks, total.retries);
}

TEST(Tracer, ReadsTheRecordTheAnalyzerReads) {
  Machine m(2, CostModel::cm5());
  RunRecord record;
  m.set_observer(&record);
  m.run([](Comm& c) {
    c.set_phase(Phase::kScatter);
    if (c.rank() == 0)
      c.send_value(1, 1, 1.0);
    else
      (void)c.recv<double>(0, 1);
  });
  analysis::Analyzer analyzer;
  analyzer.analyze(record);
  const Tracer tracer(record);
  EXPECT_GT(analyzer.events(), 0u);
  EXPECT_GT(tracer.events(), 0u);
  EXPECT_EQ(tracer.data().flows.size(), 1u);
  EXPECT_EQ(analyzer.total(), 0u);
}

TEST(Tracer, SecondRunResetsState) {
  Machine m(2, CostModel::cm5());
  RunRecord record;
  m.set_observer(&record);
  const auto program = [](Comm& c) {
    if (c.rank() == 0)
      c.send_value(1, 1, 1);
    else
      (void)c.recv<int>(0);
  };
  m.run(program);
  const auto first = to_chrome_json(Tracer(record).data());
  m.run(program);
  const Tracer tracer(record);
  EXPECT_EQ(to_chrome_json(tracer.data()), first);
  EXPECT_EQ(tracer.data().flows.size(), 1u);
}

// Past its budget a rank's events are counted, not stored: the tracer
// reports them under trace.dropped_*, pairs what it holds, and the
// analyzer, which needs every event, refuses the record by name.
TEST(RunRecord, PastTheBudgetTheTracerCountsAndTheAnalyzerRefuses) {
  Machine m(2, CostModel::cm5());
  RunRecord record(3);
  m.set_observer(&record);
  m.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 4; ++i) c.send_value(1, 1, i);
      c.mark("test.mark");
    } else {
      for (int i = 0; i < 4; ++i) (void)c.recv<int>(0, 1);
    }
  });
  EXPECT_EQ(record.events(0).size(), 3u);
  EXPECT_EQ(record.events(1).size(), 3u);
  EXPECT_EQ(record.first_truncated_rank(), 0);

  const Tracer tracer(record);
  const TraceData& d = tracer.data();
  EXPECT_EQ(d.dropped_sends, 1u);
  EXPECT_EQ(d.dropped_recvs, 1u);
  EXPECT_EQ(d.dropped_marks, 1u);
  EXPECT_EQ(d.flows.size(), 3u);  // the stored prefixes pair up
  EXPECT_EQ(tracer.events(), 9u);
  const std::string metrics = tracer.metrics().snapshot().to_json();
  EXPECT_NE(metrics.find("\"trace.dropped_sends\": 1"), std::string::npos);
  EXPECT_NE(metrics.find("\"trace.dropped_recvs\": 1"), std::string::npos);
  EXPECT_NE(metrics.find("\"trace.dropped_marks\": 1"), std::string::npos);

  analysis::Analyzer analyzer;
  try {
    analyzer.analyze(record);
    ADD_FAILURE() << "a truncated record was analyzed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("budget of 3"), std::string::npos) << what;
  }
}

// The determinism contract: the virtual-time trace and every export
// derived from it are byte-identical between the sequential reference
// scheduler and the parallel engine.
TEST(TracerModeEquivalence, ExportsAreByteIdentical) {
  const auto program = [](Comm& c) {
    c.set_phase(Phase::kScatter);
    const int p = c.size();
    // All-to-all with wildcard receives: schedule-sensitive if anything
    // in the trace depended on physical arrival order.
    for (int d = 0; d < p; ++d)
      if (d != c.rank()) c.send_value(d, 3, c.rank());
    double acc = 0.0;
    {
      Comm::OrderInsensitive scope(c);
      for (int i = 0; i < p - 1; ++i) {
        auto v = c.recv<int>();
        acc += v[0];
      }
    }
    c.set_phase(Phase::kOther);
    c.mark("test.acc", 0, acc);
    c.charge(1e-4);
  };

  const auto run_traced = [&](bool parallel) {
    Machine m(6, CostModel::cm5());
    if (parallel) m.set_workers(4);
    RunRecord record;
    m.set_observer(&record);
    m.run(program);
    return std::make_unique<Tracer>(record);
  };

  const auto seq = run_traced(false);
  const auto par = run_traced(true);
  EXPECT_EQ(to_chrome_json(seq->data(), &seq->timeline()),
            to_chrome_json(par->data(), &par->timeline()));
  EXPECT_EQ(seq->metrics().snapshot().to_json(),
            par->metrics().snapshot().to_json());
  EXPECT_EQ(seq->timeline().to_csv(), par->timeline().to_csv());
  EXPECT_EQ(seq->events(), par->events());
}

TEST(ChromeTrace, EmitsExpectedEventKinds) {
  Machine m(2, CostModel::cm5());
  RunRecord record;
  m.set_observer(&record);
  m.run([](Comm& c) {
    c.set_phase(Phase::kScatter);
    if (c.rank() == 0) {
      c.send_value(1, 1, 1.0);
      c.mark(kMarkRedistDecision, 0, 1.0);
    } else {
      (void)c.recv<double>(0);
    }
  });
  const Tracer tracer(record);
  const std::string json = to_chrome_json(tracer.data());
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow end
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("\"name\":\"scatter\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"g\""), std::string::npos);  // global instant
  // Wall-clock times are schedule-dependent and never exported.
  EXPECT_EQ(json.find("wall_us"), std::string::npos);
}

}  // namespace
}  // namespace picpar::trace
