// Worker-count equivalence: several workers must produce bit-identical
// results to one — same PicResult (clocks, traffic, physics,
// happens-before fingerprint), same delivery order, same analyzer report —
// on every fixture, including runs with fault injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/partitioner.hpp"
#include "pic/simulation.hpp"
#include "sfc/hilbert.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "worker_counts.hpp"

namespace picpar {
namespace {

using sim::Comm;
using sim::CostModel;
using sim::FaultConfig;
using sim::Machine;

void expect_pic_identical(const pic::PicResult& a, const pic::PicResult& b) {
  ASSERT_EQ(a.iters.size(), b.iters.size());
  for (std::size_t i = 0; i < a.iters.size(); ++i) {
    SCOPED_TRACE("iter " + std::to_string(i));
    const auto& x = a.iters[i];
    const auto& y = b.iters[i];
    EXPECT_EQ(x.exec_seconds, y.exec_seconds);
    EXPECT_EQ(x.loop_seconds, y.loop_seconds);
    EXPECT_EQ(x.scatter_max_sent_bytes, y.scatter_max_sent_bytes);
    EXPECT_EQ(x.scatter_max_recv_bytes, y.scatter_max_recv_bytes);
    EXPECT_EQ(x.scatter_max_sent_msgs, y.scatter_max_sent_msgs);
    EXPECT_EQ(x.scatter_max_recv_msgs, y.scatter_max_recv_msgs);
    EXPECT_EQ(x.max_ghost_entries, y.max_ghost_entries);
    EXPECT_EQ(x.redistributed, y.redistributed);
    EXPECT_EQ(x.redist_seconds, y.redist_seconds);
    EXPECT_EQ(x.redist_particles_moved, y.redist_particles_moved);
    EXPECT_EQ(x.violation_mask, y.violation_mask);
    EXPECT_EQ(x.recovered, y.recovered);
  }
  ASSERT_EQ(a.energy_history.size(), b.energy_history.size());
  for (std::size_t i = 0; i < a.energy_history.size(); ++i) {
    EXPECT_EQ(a.energy_history[i].field, b.energy_history[i].field);
    EXPECT_EQ(a.energy_history[i].kinetic, b.energy_history[i].kinetic);
  }
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.redist_seconds_total, b.redist_seconds_total);
  EXPECT_EQ(a.initial_distribution_seconds, b.initial_distribution_seconds);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.violation_iterations, b.violation_iterations);
  EXPECT_EQ(a.initial_particles, b.initial_particles);
  EXPECT_EQ(a.final_particles, b.final_particles);
  EXPECT_EQ(a.analysis_findings, b.analysis_findings);
  EXPECT_EQ(a.analysis_report, b.analysis_report);
  EXPECT_EQ(a.hb_fingerprint, b.hb_fingerprint);
  EXPECT_EQ(a.field_energy, b.field_energy);
  EXPECT_EQ(a.kinetic_energy, b.kinetic_energy);
  EXPECT_EQ(a.total_charge, b.total_charge);
  picpar::testing::expect_identical(a.machine, b.machine);
}

pic::PicParams small_pic() {
  pic::PicParams p;
  p.grid = mesh::GridDesc{32, 16};
  p.nranks = 8;
  p.init.total = 512;
  p.iterations = 4;
  p.sample_energy_every = 2;
  return p;
}

pic::PicResult run_mode(pic::PicParams p, bool parallel) {
  p.exec.parallel = parallel;
  p.exec.workers = 4;
  return pic::run_pic(p);
}

TEST(ModeEquivalence, PicPipelineCurvesAndPolicies) {
  for (const auto curve : {sfc::CurveKind::kHilbert, sfc::CurveKind::kSnake}) {
    for (const char* policy : {"static", "periodic:2", "sar"}) {
      SCOPED_TRACE(std::string(sfc::curve_kind_name(curve)) + "/" + policy);
      pic::PicParams p = small_pic();
      p.curve = curve;
      p.policy = policy;
      expect_pic_identical(run_mode(p, false), run_mode(p, true));
    }
  }
}

TEST(ModeEquivalence, PicPipelineUnderMessageFaults) {
  pic::PicParams p = small_pic();
  p.policy = "periodic:2";
  p.faults.latency_jitter_prob = 0.3;
  p.faults.latency_jitter_max_seconds = 500e-6;
  p.faults.duplicate_prob = 0.15;
  p.faults.corrupt_prob = 0.02;
  expect_pic_identical(run_mode(p, false), run_mode(p, true));
}

TEST(ModeEquivalence, PicPipelineWithValidationAndMemoryFaults) {
  pic::PicParams p = small_pic();
  p.policy = "sar";
  p.faults.memory_fault_prob = 0.05;
  p.validate.check_every = 1;
  p.validate.checkpoint_every = 2;
  expect_pic_identical(run_mode(p, false), run_mode(p, true));
}

TEST(ModeEquivalence, PicPipelineThroughCrashRecovery) {
  // One scheduled crash shrinks the group from 8 ranks to 7, so the domains
  // are built from the run's shared grid-partition table at two group
  // sizes. With several workers the ranks race to first use of both
  // entries; this is the test that puts that race in front of TSan.
  for (const auto decomp :
       {pic::GridDecomp::kCurve, pic::GridDecomp::kBlock}) {
    SCOPED_TRACE(decomp == pic::GridDecomp::kCurve ? "curve" : "block");
    pic::PicParams p = small_pic();
    p.grid_decomp = decomp;
    p.iterations = 12;
    p.policy = "periodic:4";
    p.validate.checkpoint_every = 4;
    const double clean_makespan = run_mode(p, false).total_seconds;
    p.faults.crash_schedule = {{2, 0.5 * clean_makespan}};
    const auto seq = run_mode(p, false);
    const auto par = run_mode(p, true);
    EXPECT_GE(seq.crash_count, 1);
    EXPECT_LT(seq.final_ranks, p.nranks);
    EXPECT_EQ(seq.final_particles, seq.initial_particles);
    expect_pic_identical(seq, par);
    EXPECT_EQ(seq.crash_count, par.crash_count);
    EXPECT_EQ(seq.crash_recoveries, par.crash_recoveries);
    EXPECT_EQ(seq.final_ranks, par.final_ranks);
    EXPECT_EQ(seq.mttr_seconds_total, par.mttr_seconds_total);
    EXPECT_EQ(seq.crash_lost_particles, par.crash_lost_particles);
    EXPECT_EQ(seq.crash_restored_particles, par.crash_restored_particles);
  }
}

TEST(ModeEquivalence, PicPipelineWithAnalyzerAttached) {
  pic::PicParams p = small_pic();
  p.analyze.enabled = true;
  const auto seq = run_mode(p, false);
  const auto par = run_mode(p, true);
  ASSERT_GE(seq.analysis_findings, 0);  // analyzer attached
  EXPECT_NE(seq.hb_fingerprint, 0u);
  expect_pic_identical(seq, par);
}

// The determinism audit (two runs, fingerprint + event comparison) must
// also pass when both runs execute on several workers.
TEST(ModeEquivalence, DeterminismAuditPassesInParallelMode) {
  pic::PicParams p = small_pic();
  p.analyze.audit_determinism = true;
  const auto par = run_mode(p, true);
  EXPECT_EQ(par.determinism_audit, 1);
}

TEST(ModeEquivalence, SharedSplitterSortAtP64) {
  // distribute()'s sample sort runs once per call, by whichever rank reads
  // the gathered samples first; here ranks on 8 workers race to it.
  // Routing, balance and clocks must match the one-worker run exactly.
  constexpr int p = 64;
  const mesh::GridDesc grid(32, 32);
  const sfc::HilbertCurve curve(32, 32);
  auto run_one = [&](bool parallel) {
    std::vector<std::vector<std::uint64_t>> keys(p);
    std::vector<std::uint64_t> sent(p);
    std::vector<std::vector<std::uint64_t>> bounds(p);
    Machine m(p, CostModel::cm5());
    if (parallel) m.set_workers(8);
    const std::uint64_t sorts_before = core::splitter_sample_sorts();
    const auto res = m.run([&](Comm& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      Rng rng(r + 1);
      particles::ParticleArray mine(-1.0, 1.0);
      for (int i = 0; i < 8 + c.rank() % 11; ++i) {
        particles::ParticleRec rec;
        rec.x = rng.uniform(0.0, 8.0 + c.rank() % 24);
        rec.y = rng.uniform(0.0, 32.0);
        mine.push_back(rec);
      }
      core::ParticlePartitioner part(curve, grid);
      part.assign_keys(c, mine);
      sent[r] = part.distribute(c, mine).sent_particles;
      keys[r].assign(mine.key.begin(), mine.key.end());
      bounds[r] = part.rank_upper_bounds();
    });
    EXPECT_EQ(core::splitter_sample_sorts() - sorts_before, 1u);
    return std::make_tuple(keys, sent, bounds, res);
  };
  const auto [seq_keys, seq_sent, seq_bounds, seq_res] = run_one(false);
  const auto [par_keys, par_sent, par_bounds, par_res] = run_one(true);
  EXPECT_EQ(seq_keys, par_keys);
  EXPECT_EQ(seq_sent, par_sent);
  EXPECT_EQ(seq_bounds, par_bounds);
  picpar::testing::expect_identical(seq_res, par_res);
}

// Wildcard-receive stress: heavy any-source traffic whose virtual arrival
// order is scrambled by latency jitter. The receiver's observed (src, val)
// sequence — not just aggregate counters — must be identical across modes,
// which fails if the parallel engine ever commits a wildcard match before
// the lower-bound rule proves no earlier message can still arrive.
TEST(ModeEquivalence, WildcardStressObservesIdenticalDeliverySequence) {
  constexpr int kRounds = 20;
  auto make = [] {
    FaultConfig fc;
    fc.latency_jitter_prob = 0.5;
    fc.latency_jitter_max_seconds = 2e-3;  // >> tau: scrambles arrivals
    return new Machine(8, CostModel::cm5(), fc);
  };
  auto run_one = [&](bool parallel) {
    std::vector<std::pair<int, int>> seen;
    auto program = [&seen](Comm& c) {
      const int n = c.size();
      if (c.rank() == 0) {
        for (int i = 0; i < (n - 1) * kRounds; ++i) {
          int src = -1;
          const auto v = c.recv<int>(sim::kAnySource, 1, &src);
          seen.emplace_back(src, v.at(0));
        }
      } else {
        for (int k = 0; k < kRounds; ++k) {
          c.charge_ops(static_cast<std::uint64_t>((c.rank() * 13 + k * 7) % 40));
          c.send_value(0, 1, c.rank() * 1000 + k);
        }
      }
    };
    std::unique_ptr<Machine> m(make());
    if (parallel) m->set_workers(8);
    const auto res = m->run(program);
    return std::make_pair(seen, res);
  };
  const auto [seq_seen, seq_res] = run_one(false);
  const auto [par_seen, par_res] = run_one(true);
  ASSERT_EQ(seq_seen.size(), 7u * kRounds);
  EXPECT_EQ(seq_seen, par_seen);
  picpar::testing::expect_identical(seq_res, par_res);
}

// Same stress with duplicates and jitter-reordered arrivals: transport
// dedup decisions (which copy is discarded) are part of the deterministic
// contract.
TEST(ModeEquivalence, WildcardStressUnderDupAndReorder) {
  auto make = [] {
    FaultConfig fc;
    fc.latency_jitter_prob = 0.4;
    fc.latency_jitter_max_seconds = 1e-3;
    fc.duplicate_prob = 0.3;
    return new Machine(6, CostModel::cm5(), fc);
  };
  auto program = [](Comm& c) {
    const int n = c.size();
    if (c.rank() == 0) {
      std::uint64_t acc = 0;
      for (int i = 0; i < (n - 1) * 10; ++i) {
        int src = -1;
        const auto v = c.recv<int>(sim::kAnySource, 2, &src);
        acc = acc * 1099511628211ULL + static_cast<std::uint64_t>(src * 65536 + v.at(0));
      }
      // acc folds the delivery order; cross-mode equality is enforced by
      // the clock/stats comparison (delivery order drives the clocks).
      EXPECT_NE(acc, 0u);
    } else {
      for (int k = 0; k < 10; ++k) {
        c.charge_ops(static_cast<std::uint64_t>((c.rank() * 29 + k * 11) % 50));
        c.send_value(0, 2, k);
      }
    }
  };
  picpar::testing::run_at_worker_counts(make, program);
}

// The same stress at p = 13, where every block split is uneven, and with
// every rank both sending and receiving wildcards.
TEST(ModeEquivalence, WildcardStressUnderDupAndReorderAtP13) {
  auto make = [] {
    FaultConfig fc;
    fc.latency_jitter_prob = 0.4;
    fc.latency_jitter_max_seconds = 1e-3;
    fc.duplicate_prob = 0.3;
    return new Machine(13, CostModel::cm5(), fc);
  };
  auto program = [](Comm& c) {
    const int n = c.size();
    const int r = c.rank();
    for (int k = 0; k < 6; ++k) {
      c.charge_ops(static_cast<std::uint64_t>((r * 29 + k * 11) % 50));
      for (int d = 1; d <= 3; ++d) c.send_value((r + d * 4) % n, 2, k);
      for (int d = 1; d <= 3; ++d) (void)c.recv<int>(sim::kAnySource, 2);
    }
    (void)c.allreduce_max(c.clock());
  };
  picpar::testing::run_at_worker_counts(make, program);
}

// Analyzer equality on a deliberately racy program: the parallel engine
// must report the same findings, the same counts, and the same fingerprint
// as the sequential run.
TEST(ModeEquivalence, AnalyzerReportIsByteIdenticalAcrossModes) {
  auto racy = [](Comm& c) {
    if (c.rank() == 0) {
      (void)c.recv<int>(sim::kAnySource, 5);
      (void)c.recv<int>(sim::kAnySource, 5);
    } else {
      c.charge_ops(static_cast<std::uint64_t>(c.rank() * 3));
      c.send_value(0, 5, c.rank());
    }
  };
  auto run_one = [&](bool parallel) {
    Machine m(3, CostModel::cm5());
    analysis::Analyzer an;
    m.set_observer(&an);
    if (parallel) m.set_workers(3);
    (void)m.run(racy);
    return std::make_tuple(an.report(), an.total(), an.fingerprint(),
                           an.events());
  };
  const auto seq = run_one(false);
  const auto par = run_one(true);
  EXPECT_EQ(std::get<0>(seq), std::get<0>(par));
  EXPECT_EQ(std::get<1>(seq), std::get<1>(par));
  EXPECT_EQ(std::get<2>(seq), std::get<2>(par));
  EXPECT_EQ(std::get<3>(seq), std::get<3>(par));
  EXPECT_GT(std::get<1>(seq), 0u);  // the race is actually reported
}

}  // namespace
}  // namespace picpar
