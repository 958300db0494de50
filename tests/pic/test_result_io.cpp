// PicResult serialization round-trip — the payload format of the sweep
// result cache. A cached result must rehydrate to exactly the bytes it
// serialized from (golden round-trip on a real traced, faulted run), and
// malformed input must throw, never crash or half-parse.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "pic/result_io.hpp"
#include "pic/simulation.hpp"

namespace picpar::pic {
namespace {

PicResult sample_result() {
  PicResult r;
  r.total_seconds = 12.5;
  r.compute_seconds = 10.25;
  r.redistributions = 3;
  r.redist_seconds_total = 0.75;
  r.initial_distribution_seconds = 0.125;
  r.recoveries = 1;
  r.violation_iterations = 2;
  r.initial_particles = 4096;
  r.final_particles = 4096;
  r.crash_count = 1;
  r.crash_recoveries = 1;
  r.final_ranks = 7;
  r.mttr_seconds_total = 0.0625;
  r.crash_lost_particles = 512;
  r.crash_restored_particles = 512;
  r.final_imbalance = 1.0625;
  r.analysis_findings = 0;
  r.hb_fingerprint = 0xdeadbeefcafef00dULL;
  r.determinism_audit = 1;
  r.traced = true;
  r.trace_events = 12345;
  r.field_energy = 17.252240723686292;
  r.kinetic_energy = 9.781755975221214;
  r.total_charge = -1.5;
  r.phase_wall_us = {1.5, 2.5, 0.0, 3.25, 4.0, 5.0};

  IterRecord it;
  it.iter = 0;
  it.exec_seconds = 0.5;
  it.loop_seconds = 0.45;
  it.scatter_max_sent_bytes = 1024;
  it.scatter_max_recv_bytes = 2048;
  it.scatter_max_sent_msgs = 7;
  it.scatter_max_recv_msgs = 9;
  it.max_ghost_entries = 33;
  r.iters.push_back(it);
  it.iter = 1;
  it.redistributed = true;
  it.redist_seconds = 0.07;
  it.redist_particles_moved = 100;
  it.violation_mask = 5;
  it.recovered = true;
  it.crash_recovered = true;
  r.iters.push_back(it);

  r.energy_history.push_back({0, 1.25, 2.5});
  r.energy_history.push_back({5, 1.0 / 3.0, 0.1});

  r.machine.epochs = 2;
  r.machine.crashes.push_back({3, 4.5});
  sim::RankReport rr;
  rr.rank = 0;
  rr.clock = 12.5;
  auto& pc = rr.stats.phase(static_cast<sim::Phase>(0));
  pc.msgs_sent = 10;
  pc.bytes_sent = 1000;
  pc.msgs_recv = 11;
  pc.bytes_recv = 1100;
  pc.comm_seconds = 0.25;
  pc.compute_seconds = 1.75;
  rr.faults.transient_slowdowns = 1;
  rr.faults.crashes = 1;
  sim::LinkStats ls;
  ls.retries = 4;
  ls.dup_discards = 2;
  ls.corruptions_detected = 1;
  rr.links.push_back(ls);
  r.machine.ranks.push_back(rr);
  sim::RankReport r2;
  r2.rank = 1;
  r2.clock = 11.5;
  r2.crashed = true;
  r2.crash_vtime = 4.5;
  r.machine.ranks.push_back(r2);

  r.analysis_report = "finding: none\nall clean\n";
  r.metrics_json = "{\n  \"counters\": {\n  },\n}\n";
  r.timeline_csv = "iter,vtime\n0,0.5\n";
  return r;
}

TEST(ResultIo, HandCraftedRoundTripIsByteExact) {
  const auto r = sample_result();
  const std::string s = serialize_result(r);
  const PicResult back = parse_result(s);
  EXPECT_EQ(serialize_result(back), s);

  // Spot checks across field groups.
  EXPECT_EQ(back.total_seconds, r.total_seconds);
  EXPECT_EQ(back.hb_fingerprint, r.hb_fingerprint);
  // Wall times describe the host of one run, so the payload leaves them out.
  EXPECT_TRUE(back.phase_wall_us.empty());
  ASSERT_EQ(back.iters.size(), 2u);
  EXPECT_TRUE(back.iters[1].redistributed);
  EXPECT_EQ(back.iters[1].violation_mask, 5u);
  ASSERT_EQ(back.energy_history.size(), 2u);
  EXPECT_EQ(back.energy_history[1].field, 1.0 / 3.0);
  ASSERT_EQ(back.machine.ranks.size(), 2u);
  EXPECT_EQ(back.machine.ranks[0].links.size(), 1u);
  EXPECT_EQ(back.machine.ranks[0].links[0].retries, 4u);
  EXPECT_TRUE(back.machine.ranks[1].crashed);
  EXPECT_EQ(back.machine.crashes.size(), 1u);
  EXPECT_EQ(back.metrics_json, r.metrics_json);
  EXPECT_EQ(back.timeline_csv, r.timeline_csv);
}

TEST(ResultIo, DefaultResultRoundTrips) {
  const PicResult r;
  const std::string s = serialize_result(r);
  EXPECT_EQ(serialize_result(parse_result(s)), s);
}

TEST(ResultIo, GoldenRoundTripOnRealRun) {
  // A real traced run with energy sampling and wire faults exercises every
  // serialized section with live data, including the exported metrics and
  // timeline blobs a cached sweep rehydrates.
  PicParams p;
  p.grid = mesh::GridDesc(32, 16);
  p.nranks = 8;
  p.scenario = "irregular_beam";
  p.init.total = 2000;
  p.init.drift_ux = 0.12;
  p.iterations = 12;
  p.policy = "periodic:4";
  p.trace.enabled = true;
  p.sample_energy_every = 3;
  p.faults.corrupt_prob = 0.02;
  p.faults.duplicate_prob = 0.02;
  p.faults.max_retries = 10;
  const PicResult r = run_pic(p);
  ASSERT_TRUE(r.traced);
  ASSERT_FALSE(r.metrics_json.empty());
  ASSERT_FALSE(r.iters.empty());
  ASSERT_FALSE(r.energy_history.empty());

  const std::string s = serialize_result(r);
  const PicResult back = parse_result(s);
  EXPECT_EQ(serialize_result(back), s);
  EXPECT_EQ(back.total_seconds, r.total_seconds);
  EXPECT_EQ(back.final_particles, r.final_particles);
  EXPECT_EQ(back.metrics_json, r.metrics_json);
  EXPECT_EQ(back.timeline_csv, r.timeline_csv);
}

TEST(ResultIo, MalformedInputThrows) {
  const std::string s = serialize_result(sample_result());
  EXPECT_THROW(parse_result(""), std::runtime_error);
  EXPECT_THROW(parse_result("picpar-result v0\n"), std::runtime_error);
  // Payloads of earlier versions are refused rather than half-read: v1
  // still stored wall times and a metrics CSV, v2 a reorder counter in each
  // rank's faults row.
  for (const char* old : {"picpar-result v1", "picpar-result v2"}) {
    std::string prev = s;
    prev.replace(0, prev.find('\n'), old);
    EXPECT_THROW(parse_result(prev), std::runtime_error) << old;
  }
  EXPECT_THROW(parse_result("garbage"), std::runtime_error);
  // Truncation at any section boundary.
  for (const std::size_t cut :
       {s.size() / 8, s.size() / 2, s.size() - 5, s.size() - 1})
    EXPECT_THROW(parse_result(std::string_view(s).substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  // Trailing junk after the end marker.
  EXPECT_THROW(parse_result(s + "extra\n"), std::runtime_error);
}

}  // namespace
}  // namespace picpar::pic
