// InvariantChecker: each invariant fires on exactly the corruption it
// guards against, the verdict is a collective, and a clean population
// passes everything.
#include "core/invariants.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "core/indexing.hpp"
#include "core/partitioner.hpp"
#include "particles/init.hpp"
#include "sim/comm.hpp"

namespace picpar::core {
namespace {

using particles::ParticleArray;
using sim::Comm;
using sim::CostModel;
using sim::Machine;

struct Fixture {
  mesh::GridDesc grid{32, 32};
  std::unique_ptr<sfc::Curve> curve =
      sfc::make_curve(sfc::CurveKind::kHilbert, 32, 32);
  ParticleArray population;

  explicit Fixture(std::uint64_t total = 400) : population(-1.0, 1.0) {
    particles::InitParams ip;
    ip.total = total;
    population = particles::generate(particles::Distribution::kGaussian, grid,
                                     ip);
    for (std::size_t i = 0; i < population.size(); ++i)
      population.key[i] =
          key_of(*curve, grid, population.x[i], population.y[i]);
  }

  /// Run `mutate(rank, local slice)` then check on `ranks` ranks; returns
  /// the mask every rank agreed on.
  std::uint32_t check_with(
      int ranks, InvariantConfig cfg,
      const std::function<void(int, ParticleArray&)>& mutate,
      bool pass_bounds = false) {
    std::uint32_t mask = 0;
    Machine m(ranks, CostModel::zero());
    m.run([&](Comm& c) {
      ParticleArray mine(population.charge(), population.mass());
      PartitionerConfig pcfg;
      ParticlePartitioner partitioner(*curve, grid, pcfg);
      const auto total = population.size();
      const auto r = static_cast<std::size_t>(c.rank());
      const auto p = static_cast<std::size_t>(ranks);
      for (std::size_t i = r * total / p; i < (r + 1) * total / p; ++i)
        mine.push_back(population.rec(i));
      partitioner.assign_keys(c, mine);
      partitioner.distribute(c, mine);

      InvariantChecker checker(*curve, grid, cfg);
      checker.set_reference_count(static_cast<std::uint64_t>(total));
      mutate(c.rank(), mine);
      const auto rep = checker.check(
          c, mine, 0, pass_bounds ? &partitioner.rank_upper_bounds() : nullptr);
      // Collective verdict: every rank must report the identical mask.
      const auto min_mask = c.allreduce_min<std::uint32_t>(rep.mask);
      const auto max_mask = c.allreduce_max<std::uint32_t>(rep.mask);
      EXPECT_EQ(min_mask, max_mask);
      if (c.rank() == 0) mask = rep.mask;
    });
    return mask;
  }
};

TEST(Invariants, CleanPopulationPasses) {
  Fixture fx;
  InvariantConfig cfg;
  cfg.balance_tolerance = 1.5;
  const auto mask = fx.check_with(4, cfg, [](int, ParticleArray&) {}, true);
  EXPECT_EQ(mask, 0u);
}

TEST(Invariants, LostParticleFiresCount) {
  Fixture fx;
  const auto mask = fx.check_with(4, {}, [](int rank, ParticleArray& p) {
    if (rank == 2 && !p.empty()) p.swap_remove(p.size() - 1);
  });
  EXPECT_TRUE(mask & static_cast<std::uint32_t>(Invariant::kCount));
}

TEST(Invariants, NanMomentumFiresFinite) {
  Fixture fx;
  const auto mask = fx.check_with(3, {}, [](int rank, ParticleArray& p) {
    if (rank == 1 && !p.empty())
      p.ux[0] = std::numeric_limits<double>::quiet_NaN();
  });
  EXPECT_TRUE(mask & static_cast<std::uint32_t>(Invariant::kFinite));
  // A finite momentum whose Lorentz factor overflows (gamma = inf), as a
  // flipped exponent bit leaves it.
  const auto huge = fx.check_with(3, {}, [](int rank, ParticleArray& p) {
    if (rank == 1 && !p.empty()) p.ux[0] = 1e300;
  });
  EXPECT_TRUE(huge & static_cast<std::uint32_t>(Invariant::kFinite));
}

TEST(Invariants, EscapedPositionFiresDomain) {
  Fixture fx;
  const auto mask = fx.check_with(3, {}, [&](int rank, ParticleArray& p) {
    if (rank == 0 && !p.empty()) p.x[0] = fx.grid.lx * 2.5;
  });
  EXPECT_TRUE(mask & static_cast<std::uint32_t>(Invariant::kDomain));
}

TEST(Invariants, StaleKeyFiresKey) {
  Fixture fx;
  const auto mask = fx.check_with(3, {}, [](int rank, ParticleArray& p) {
    if (rank == 2 && !p.empty()) p.key[0] ^= 0x40;
  });
  EXPECT_TRUE(mask & static_cast<std::uint32_t>(Invariant::kKey));
}

TEST(Invariants, KeyCheckCanBeDisabled) {
  Fixture fx;
  InvariantConfig cfg;
  cfg.verify_keys = false;
  // Without bounds no order check runs either, so a corrupt key must pass.
  const auto mask = fx.check_with(3, cfg, [](int rank, ParticleArray& p) {
    if (rank == 2 && !p.empty()) p.key[0] ^= 0x40;
  });
  EXPECT_EQ(mask, 0u);
}

TEST(Invariants, OutOfOrderKeysFireSorted) {
  Fixture fx;
  InvariantConfig cfg;
  cfg.verify_keys = false;  // isolate the order check from the key check
  const auto mask = fx.check_with(
      3, cfg,
      [](int rank, ParticleArray& p) {
        if (rank == 1 && p.size() >= 2) std::swap(p.key[0], p.key[p.size() - 1]);
      },
      true);
  EXPECT_TRUE(mask & static_cast<std::uint32_t>(Invariant::kSorted));
}

TEST(Invariants, GrossImbalanceFiresBalance) {
  Fixture fx;
  InvariantConfig cfg;
  cfg.balance_tolerance = 1.5;
  cfg.balance_slack = 4.0;
  const auto mask = fx.check_with(4, cfg, [&](int rank, ParticleArray& p) {
    // Rank 3 hoards extra copies: count conservation is broken too, but
    // balance must fire on its own bit.
    if (rank == 3)
      for (int k = 0; k < 600; ++k) p.push_back(fx.population.rec(0));
  });
  EXPECT_TRUE(mask & static_cast<std::uint32_t>(Invariant::kBalance));
  EXPECT_TRUE(mask & static_cast<std::uint32_t>(Invariant::kCount));
}

TEST(Invariants, EnergyDriftFiresAgainstReference) {
  Fixture fx;
  InvariantConfig cfg;
  cfg.energy_factor = 2.0;
  Machine m(2, CostModel::zero());
  std::uint32_t second_mask = 0;
  m.run([&](Comm& c) {
    InvariantChecker checker(*fx.curve, fx.grid, cfg);
    ParticleArray empty(-1.0, 1.0);
    // First call adopts the reference; a 10x jump on the second must fire.
    const auto first = checker.check(c, empty, 0, nullptr, 1.0);
    EXPECT_EQ(first.mask, 0u);
    const auto second = checker.check(c, empty, 1, nullptr, 10.0);
    if (c.rank() == 0) second_mask = second.mask;
  });
  EXPECT_TRUE(second_mask & static_cast<std::uint32_t>(Invariant::kEnergy));
}

TEST(Invariants, ViolationDetailsNameTheProblem) {
  Fixture fx;
  Machine m(1, CostModel::zero());
  m.run([&](Comm& c) {
    InvariantChecker checker(*fx.curve, fx.grid, {});
    checker.set_reference_count(3);
    ParticleArray p(-1.0, 1.0);
    p.push_back(fx.population.rec(0));
    p.ux[0] = std::numeric_limits<double>::infinity();
    const auto rep = checker.check(c, p, 7, nullptr);
    ASSERT_FALSE(rep.ok());
    ASSERT_FALSE(rep.violations.empty());
    bool saw_finite = false;
    for (const auto& v : rep.violations) {
      EXPECT_EQ(v.iter, 7);
      if (v.kind == Invariant::kFinite) {
        saw_finite = true;
        EXPECT_NE(v.detail.find("non-finite"), std::string::npos);
      }
    }
    EXPECT_TRUE(saw_finite);
    EXPECT_TRUE(rep.has(Invariant::kCount));  // 1 != reference 3
  });
}

TEST(Invariants, NamesAreStable) {
  EXPECT_STREQ(invariant_name(Invariant::kCount), "count");
  EXPECT_STREQ(invariant_name(Invariant::kSorted), "sorted");
  EXPECT_STREQ(invariant_name(Invariant::kEnergy), "energy");
}

}  // namespace
}  // namespace picpar::core
