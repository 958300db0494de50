// Bit-for-bit checks of pic/kernels: each block pass against its
// per-particle helper, and each kernel against the per-particle loop it
// replaced. Comparisons are on bit patterns (memcmp), never tolerances.
#include "pic/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/indexing.hpp"
#include "mesh/partition.hpp"
#include "particles/interpolate.hpp"
#include "particles/pusher.hpp"
#include "sfc/curve.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace picpar::pic {
namespace {

using core::GhostExchange;
using mesh::FieldState;
using mesh::GridDesc;
using mesh::GridPartition;
using mesh::LocalGrid;
using particles::LocalFields;
using particles::ParticleArray;
using particles::ParticleRec;

/// Particle counts around the block size (32): empty, vector tails,
/// exactly one and two blocks, one short of and one past each, and many
/// blocks with a partial last one.
constexpr std::size_t kCounts[] = {0, 1, 2, 3, 31, 32, 33, 63, 64, 65, 1000};

constexpr core::DedupPolicy kPolicies[] = {core::DedupPolicy::kHash,
                                           core::DedupPolicy::kDirect};

bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

/// Two negatively charged species with different q/m, as in the
/// beam-into-plasma scenario.
ParticleArray two_species() {
  return ParticleArray({{-1.0, 1.0}, {-2.5, 7.0}});
}

/// n particles with relativistic momenta (gamma up to about 10). Runs of
/// four share a cell, as along a sorted curve, so ghost slots are both
/// created and found again. key = species id (alternating when
/// multi-species).
ParticleArray random_particles(std::size_t n, std::uint64_t seed,
                               const GridDesc& g, bool multi) {
  ParticleArray p = multi ? two_species() : ParticleArray(-1.0, 1.0);
  Rng rng(seed);
  const double dx = g.dx(), dy = g.dy();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t cell = (i / 4) * 7 % g.cells();
    ParticleRec r;
    r.x = (static_cast<double>(g.node_x(cell)) + rng.uniform()) * dx;
    r.y = (static_cast<double>(g.node_y(cell)) + rng.uniform()) * dy;
    r.ux = rng.normal(0.0, 3.0);
    r.uy = rng.normal(0.0, 3.0);
    r.uz = rng.normal(0.0, 3.0);
    r.key = multi ? i % 2 : 0;
    p.push_back(r);
  }
  return p;
}

/// The Boris kick exactly as first written, before the shared inline
/// formula: the reference both boris_kick and kick_block must reproduce.
void reference_boris(double q, double m, double dt, const LocalFields& f,
                     double& ux, double& uy, double& uz) {
  const double qmdt2 = 0.5 * q * dt / m;
  double umx = ux + qmdt2 * f.ex;
  double umy = uy + qmdt2 * f.ey;
  double umz = uz + qmdt2 * f.ez;
  const double gamma = std::sqrt(1.0 + umx * umx + umy * umy + umz * umz);
  const double tx = qmdt2 * f.bx / gamma;
  const double ty = qmdt2 * f.by / gamma;
  const double tz = qmdt2 * f.bz / gamma;
  const double t2 = tx * tx + ty * ty + tz * tz;
  const double sx = 2.0 * tx / (1.0 + t2);
  const double sy = 2.0 * ty / (1.0 + t2);
  const double sz = 2.0 * tz / (1.0 + t2);
  const double upx = umx + (umy * tz - umz * ty);
  const double upy = umy + (umz * tx - umx * tz);
  const double upz = umz + (umx * ty - umy * tx);
  umx += upy * sz - upz * sy;
  umy += upz * sx - upx * sz;
  umz += upx * sy - upy * sx;
  ux = umx + qmdt2 * f.ex;
  uy = umy + qmdt2 * f.ey;
  uz = umz + qmdt2 * f.ez;
}

double reference_gamma(double ux, double uy, double uz) {
  return std::sqrt(1.0 + ux * ux + uy * uy + uz * uz);
}

// ---------------------------------------------------------------- blocks

TEST(KernelBlocks, CurrentsMatchPerParticleExpression) {
  const GridDesc g(16, 8);
  for (const std::size_t n : kCounts) {
    const ParticleArray p = random_particles(n, 11 + n, g, true);
    std::vector<double> qv(n), jx(n), jy(n), jz(n);
    std::vector<double> rx(n), ry(n), rz(n);
    for (std::size_t i = 0; i < n; ++i) {
      qv[i] = p.charge_of(i) * 3.7;
      const double gamma = reference_gamma(p.ux[i], p.uy[i], p.uz[i]);
      ASSERT_EQ(gamma, p.gamma(i));
      rx[i] = qv[i] * p.ux[i] / gamma;
      ry[i] = qv[i] * p.uy[i] / gamma;
      rz[i] = qv[i] * p.uz[i] / gamma;
    }
    currents_block(n, qv.data(), p.ux.data(), p.uy.data(), p.uz.data(),
                   jx.data(), jy.data(), jz.data());
    EXPECT_TRUE(same_bits(jx, rx)) << "n=" << n;
    EXPECT_TRUE(same_bits(jy, ry)) << "n=" << n;
    EXPECT_TRUE(same_bits(jz, rz)) << "n=" << n;
  }
}

TEST(KernelBlocks, KickMatchesBorisKick) {
  const GridDesc g(16, 8);
  const double dt = 0.35;
  for (const std::size_t n : kCounts) {
    ParticleArray p = random_particles(n, 23 + n, g, true);
    Rng rng(97 + n);
    std::vector<double> qm(n), ex(n), ey(n), ez(n), bx(n), by(n), bz(n);
    for (std::size_t i = 0; i < n; ++i) {
      qm[i] = particles::boris_factor(p.charge_of(i), p.mass_of(i), dt);
      ex[i] = rng.normal(0.0, 1.5);
      ey[i] = rng.normal(0.0, 1.5);
      ez[i] = rng.normal(0.0, 1.5);
      bx[i] = rng.normal(0.0, 1.5);
      by[i] = rng.normal(0.0, 1.5);
      bz[i] = rng.normal(0.0, 1.5);
    }
    std::vector<double> sx = p.ux, sy = p.uy, sz = p.uz;  // boris_kick
    std::vector<double> rx = p.ux, ry = p.uy, rz = p.uz;  // reference
    for (std::size_t i = 0; i < n; ++i) {
      const LocalFields lf{ex[i], ey[i], ez[i], bx[i], by[i], bz[i]};
      particles::boris_kick(p.charge_of(i), p.mass_of(i), dt, lf, sx[i],
                            sy[i], sz[i]);
      reference_boris(p.charge_of(i), p.mass_of(i), dt, lf, rx[i], ry[i],
                      rz[i]);
    }
    kick_block(n, qm.data(), ex.data(), ey.data(), ez.data(), bx.data(),
               by.data(), bz.data(), p.ux.data(), p.uy.data(), p.uz.data());
    EXPECT_TRUE(same_bits(p.ux, sx) && same_bits(p.uy, sy) &&
                same_bits(p.uz, sz))
        << "block kick differs from boris_kick, n=" << n;
    EXPECT_TRUE(same_bits(sx, rx) && same_bits(sy, ry) && same_bits(sz, rz))
        << "boris_kick differs from the reference formula, n=" << n;
  }
}

TEST(KernelBlocks, AdvanceMatchesAdvancePosition) {
  const GridDesc g(16, 8, 1.6, 0.8);
  const double dt = 0.2;  // moves some particles out through every edge
  for (const std::size_t n : kCounts) {
    const ParticleArray p = random_particles(n, 31 + n, g, false);
    std::vector<double> xn(n), yn(n);
    advance_block(n, dt, p.x.data(), p.y.data(), p.ux.data(), p.uy.data(),
                  p.uz.data(), xn.data(), yn.data());
    ParticleArray wrapped = p;
    ParticleArray absorbed = p;
    for (std::size_t i = 0; i < n; ++i) {
      const double gamma = reference_gamma(p.ux[i], p.uy[i], p.uz[i]);
      const double rx = p.x[i] + dt * p.ux[i] / gamma;
      const double ry = p.y[i] + dt * p.uy[i] / gamma;
      ASSERT_TRUE(same_bits(&xn[i], &rx, 1) && same_bits(&yn[i], &ry, 1))
          << "n=" << n << " i=" << i;

      particles::advance_position(g, wrapped, i, dt);
      const double wx = g.wrap_x(xn[i]), wy = g.wrap_y(yn[i]);
      EXPECT_TRUE(same_bits(&wrapped.x[i], &wx, 1) &&
                  same_bits(&wrapped.y[i], &wy, 1))
          << "n=" << n << " i=" << i;

      const bool inside = xn[i] >= 0.0 && xn[i] < g.lx;
      ASSERT_EQ(particles::advance_position_absorb_x(g, absorbed, i, dt),
                inside);
      if (inside) {
        EXPECT_TRUE(same_bits(&absorbed.x[i], &xn[i], 1) &&
                    same_bits(&absorbed.y[i], &wy, 1))
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelBlocks, QuotientsAndSharedStencilMatchCicStencil) {
  const GridDesc g(16, 8, 1.6, 0.8);
  const double dx = g.dx(), dy = g.dy();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // In range, on both edges, and what a memory fault can leave behind.
  const double xs[] = {0.0,  -0.0,   std::nextafter(g.lx, 0.0), g.lx, -0.5,
                       1e300, -1e300, inf,                       -inf, nan};
  const double ys[] = {0.0,  -0.0,   std::nextafter(g.ly, 0.0), g.ly, -0.5,
                       1e300, -1e300, inf,                       -inf, nan};
  constexpr std::size_t kSpecial = sizeof(xs) / sizeof(xs[0]);
  for (const std::size_t n : {0u, 1u, 31u, 32u, 33u, 1000u}) {
    const ParticleArray p = random_particles(n, 83 + n, g, false);
    std::vector<double> x = p.x, y = p.y;
    // Special values in x, in y and in both, cycling through all of them.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = (i / 3) % kSpecial;
      if (i % 3 != 1) x[i] = xs[s];
      if (i % 3 != 0) y[i] = ys[(s + i) % kSpecial];
    }
    std::vector<double> gx(n), gy(n);
    quotients_block(n, dx, dy, x.data(), y.data(), gx.data(), gy.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double qx = x[i] / dx, qy = y[i] / dy;
      ASSERT_TRUE(same_bits(&gx[i], &qx, 1) && same_bits(&gy[i], &qy, 1))
          << "n=" << n << " i=" << i;
      const auto a = particles::cic_stencil_of_quotients(g, gx[i], gy[i]);
      const auto b = particles::cic_stencil(g, x[i], y[i]);
      static_assert(sizeof(a) == 4 * 8 + 4 * 8, "no padding to compare");
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
          << "n=" << n << " i=" << i << " x=" << x[i] << " y=" << y[i];
      for (const auto node : a.node) EXPECT_LT(node, g.nodes());
    }
  }
}

// --------------------------------------------------------------- kernels

/// The deposit loop before the block passes, resolving every vertex
/// through the local grid and deposit_slot.
void reference_deposit(const GridDesc& grid, const ParticleArray& p,
                       const LocalGrid& lg, FieldState& f,
                       GhostExchange& ghosts) {
  const double inv_cell = 1.0 / (grid.dx() * grid.dy());
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto st = particles::cic_stencil(grid, p.x[i], p.y[i]);
    const double gamma = p.gamma(i);
    const double qv = p.charge_of(i) * inv_cell;
    const double jx = qv * p.ux[i] / gamma;
    const double jy = qv * p.uy[i] / gamma;
    const double jz = qv * p.uz[i] / gamma;
    for (int k = 0; k < 4; ++k) {
      const double w = st.weight[k];
      const auto l = lg.local_of(st.node[k]);
      if (l != mesh::kNoLocal && l < lg.owned()) {
        f.jx[l] += w * jx;
        f.jy[l] += w * jy;
        f.jz[l] += w * jz;
        f.rho[l] += w * qv;
      } else {
        double* slot = ghosts.deposit_slot(st.node[k]);
        slot[0] += w * jx;
        slot[1] += w * jy;
        slot[2] += w * jz;
        slot[3] += w * qv;
      }
    }
  }
}

TEST(Kernels, DepositMatchesPerParticleLoop) {
  const GridDesc g(16, 8, 1.6, 0.8);
  const auto part = GridPartition::block(g, 2, 2);
  const LocalGrid lg(part, 0);
  for (const auto policy : kPolicies) {
    for (const bool multi : {false, true}) {
      for (const std::size_t n : kCounts) {
        SCOPED_TRACE(std::string("policy=") + core::dedup_policy_name(policy) +
                     " multi=" + std::to_string(multi) +
                     " n=" + std::to_string(n));
        const ParticleArray p = random_particles(n, 41 + n, g, multi);
        FieldState f1(lg), f2(lg);
        GhostExchange g1(lg, policy);
        GhostExchange g2(lg, policy);
        g1.begin_iteration();
        g2.begin_iteration();
        deposit(g, p, f1, g1);
        reference_deposit(g, p, lg, f2, g2);
        EXPECT_TRUE(same_bits(f1.jx, f2.jx) && same_bits(f1.jy, f2.jy) &&
                    same_bits(f1.jz, f2.jz) && same_bits(f1.rho, f2.rho))
            << "owned sums differ";
        ASSERT_EQ(g1.entries(), g2.entries());
        if (n >= 64) {
          EXPECT_GT(g1.entries(), 0u) << "no ghost vertex exercised";
        }
        for (std::uint64_t gid = 0; gid < g.nodes(); ++gid)
          ASSERT_EQ(g1.slot_of(gid), g2.slot_of(gid)) << "ghost entry order";
        for (std::uint32_t s = 0; s < g1.entries(); ++s)
          EXPECT_TRUE(same_bits(g1.deposit_data(s), g2.deposit_data(s),
                                GhostExchange::kDeposit))
              << "ghost sums differ";
        // The record names each vertex's owned local index or
        // owned() + its ghost slot.
        const std::uint32_t* rec = g1.recorded(n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto st = particles::cic_stencil(g, p.x[i], p.y[i]);
          for (int k = 0; k < 4; ++k) {
            const auto gid = st.node[k];
            const std::uint32_t want =
                lg.owns(gid) ? lg.local_of(gid)
                             : g1.owned() + g2.slot_of(gid);
            ASSERT_EQ(rec[4 * i + static_cast<std::size_t>(k)], want)
                << "i=" << i << " k=" << k;
          }
        }
      }
    }
  }
}

/// The gather + kick loop before the block passes, resolving every vertex
/// again through the local grid and slot_of.
void reference_gather_kick(const GridDesc& grid, double dt,
                           const scenario::DriverSpec* driver, double t,
                           ParticleArray& p, const LocalGrid& lg,
                           const FieldState& f, const GhostExchange& ghosts) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto st = particles::cic_stencil(grid, p.x[i], p.y[i]);
    LocalFields lf;
    for (int k = 0; k < 4; ++k) {
      const double w = st.weight[k];
      const auto l = lg.local_of(st.node[k]);
      if (l != mesh::kNoLocal && l < lg.owned()) {
        lf.ex += w * f.ex[l];
        lf.ey += w * f.ey[l];
        lf.ez += w * f.ez[l];
        lf.bx += w * f.bx[l];
        lf.by += w * f.by[l];
        lf.bz += w * f.bz[l];
      } else {
        const double* s = ghosts.field_data(ghosts.slot_of(st.node[k]));
        lf.ex += w * s[0];
        lf.ey += w * s[1];
        lf.ez += w * s[2];
        lf.bx += w * s[3];
        lf.by += w * s[4];
        lf.bz += w * s[5];
      }
    }
    if (driver != nullptr) {
      const auto dv = scenario::driver_field(*driver, grid, t, p.x[i], p.y[i]);
      lf.ex += dv.ex;
      lf.ey += dv.ey;
    }
    reference_boris(p.charge_of(i), p.mass_of(i), dt, lf, p.ux[i], p.uy[i],
                    p.uz[i]);
  }
}

TEST(Kernels, GatherKickMatchesPerParticleLoop) {
  const GridDesc g(16, 8, 1.6, 0.8);
  const auto part = GridPartition::block(g, 2, 2);
  scenario::DriverSpec drive;
  drive.enabled = true;
  drive.amp = 0.8;
  drive.omega = 0.3;
  const double dt = 0.35;
  for (const auto policy : kPolicies) {
    for (const bool multi : {false, true}) {
      for (const bool driven : {false, true}) {
        for (const std::size_t n : kCounts) {
          std::vector<int> mismatches(4, -1);
          sim::Machine m(4, sim::CostModel::zero());
          m.run([&](sim::Comm& c) {
            const LocalGrid lg(part, c.rank());
            FieldState f(lg);
            Rng rng(7 + static_cast<std::uint64_t>(c.rank()));
            for (std::size_t l = 0; l < lg.owned(); ++l) {
              f.ex[l] = rng.normal();
              f.ey[l] = rng.normal();
              f.ez[l] = rng.normal();
              f.bx[l] = rng.normal();
              f.by[l] = rng.normal();
              f.bz[l] = rng.normal();
            }
            GhostExchange ghosts(lg, policy);
            ghosts.begin_iteration();
            ParticleArray p = random_particles(
                n, 53 + n + static_cast<std::uint64_t>(c.rank()), g, multi);
            deposit(g, p, f, ghosts);
            ghosts.flush_scatter(c, f);
            ghosts.fetch_fields(c, f);
            ParticleArray ref = p;
            const scenario::DriverSpec* d = driven ? &drive : nullptr;
            gather_kick(g, dt, d, 1.25, p, f, ghosts);
            reference_gather_kick(g, dt, d, 1.25, ref, lg, f, ghosts);
            int bad = 0;
            for (std::size_t i = 0; i < n; ++i)
              bad += same_bits(&p.ux[i], &ref.ux[i], 1) &&
                             same_bits(&p.uy[i], &ref.uy[i], 1) &&
                             same_bits(&p.uz[i], &ref.uz[i], 1)
                         ? 0
                         : 1;
            mismatches[static_cast<std::size_t>(c.rank())] = bad;
          });
          for (int r = 0; r < 4; ++r)
            EXPECT_EQ(mismatches[static_cast<std::size_t>(r)], 0)
                << "rank " << r
                << " policy=" << core::dedup_policy_name(policy)
                << " multi=" << multi << " driven=" << driven << " n=" << n;
        }
      }
    }
  }
}

TEST(Kernels, GatherKickRejectsAStaleRecord) {
  // One rank owns every node, so an accepted gather needs no fetch_fields.
  const GridDesc g(16, 8, 1.6, 0.8);
  const auto part = GridPartition::block(g, 1, 1);
  const LocalGrid lg(part, 0);
  for (const auto policy : kPolicies) {
    SCOPED_TRACE(core::dedup_policy_name(policy));
    FieldState f(lg);
    GhostExchange ghosts(lg, policy);
    ParticleArray p = random_particles(40, 71, g, false);
    const ParticleArray before = p;

    // No deposit yet.
    EXPECT_THROW(gather_kick(g, 0.1, nullptr, 0.0, p, f, ghosts),
                 std::logic_error);

    // A deposit of other particles than the gather's.
    ghosts.begin_iteration();
    deposit(g, p, f, ghosts);
    p.push_back(p.rec(0));
    EXPECT_THROW(gather_kick(g, 0.1, nullptr, 0.0, p, f, ghosts),
                 std::logic_error);
    p.truncate(before.size());

    // A deposit from the previous iteration.
    ghosts.begin_iteration();
    EXPECT_THROW(gather_kick(g, 0.1, nullptr, 0.0, p, f, ghosts),
                 std::logic_error);
    EXPECT_TRUE(same_bits(p.ux, before.ux) && same_bits(p.uy, before.uy) &&
                same_bits(p.uz, before.uz))
        << "a rejected gather must not kick";

    // A fresh record is accepted again.
    deposit(g, p, f, ghosts);
    EXPECT_NO_THROW(gather_kick(g, 0.1, nullptr, 0.0, p, f, ghosts));
  }
}

/// The push loop before the block passes: per-particle helpers, keys
/// through core::key_of / core::encode_key, order-preserving compaction.
std::uint64_t reference_push(const GridDesc& grid, double dt, bool absorb_x,
                             const sfc::IndexCache& keys, ParticleArray& p) {
  const std::uint64_t stride = p.key_stride();
  const std::size_t n = p.size();
  std::uint64_t absorbed = 0;
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (absorb_x) {
      if (!particles::advance_position_absorb_x(grid, p, i, dt)) {
        ++absorbed;
        continue;
      }
    } else {
      particles::advance_position(grid, p, i, dt);
    }
    const std::uint64_t key =
        stride == 1 ? core::key_of(keys, grid, p.x[i], p.y[i])
                    : core::encode_key(keys, grid, p.x[i], p.y[i], stride,
                                       p.key[i] % stride);
    if (w != i) p.set(w, p.rec(i));
    p.key[w] = key;
    ++w;
  }
  if (w != n) p.truncate(w);
  return absorbed;
}

TEST(Kernels, PushMatchesPerParticleLoop) {
  const GridDesc g(16, 8, 1.6, 0.8);
  const auto curve = sfc::make_curve(sfc::CurveKind::kHilbert, g.nx, g.ny);
  const sfc::IndexCache keys(*curve, g.nx, g.ny);
  const double dt = 0.2;
  for (const bool multi : {false, true}) {
    for (const bool absorb : {false, true}) {
      for (const std::size_t n : kCounts) {
        ParticleArray p = random_particles(n, 61 + n, g, multi);
        ParticleArray ref = p;
        const auto lost = push(g, dt, absorb, keys, p);
        const auto ref_lost = reference_push(g, dt, absorb, keys, ref);
        EXPECT_EQ(lost, ref_lost);
        if (absorb && n >= 64) {
          EXPECT_GT(lost, 0u) << "test moves too little";
        }
        EXPECT_TRUE(same_bits(p.x, ref.x) && same_bits(p.y, ref.y) &&
                    same_bits(p.ux, ref.ux) && same_bits(p.uy, ref.uy) &&
                    same_bits(p.uz, ref.uz) && p.key == ref.key)
            << "multi=" << multi << " absorb=" << absorb << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace picpar::pic
