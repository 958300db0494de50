// Bit-for-bit checks of pic/kernels: each block pass against its
// per-particle helper, and each kernel against the per-particle loop it
// replaced. Comparisons are on bit patterns (memcmp), never tolerances.
#include "pic/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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

/// Particle counts around the block size: empty, vector tails, exactly
/// one block, one past it, and many blocks with a partial last one.
constexpr std::size_t kCounts[] = {0, 1, 2, 3, 63, 64, 65, 1000};

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
/// four share a cell, as along a sorted curve, so the stencil memo both
/// hits and misses. key = species id (alternating when multi-species).
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

// --------------------------------------------------------------- kernels

/// The deposit loop before the block passes, without the stencil memo
/// (the memo changes no value and no first-touch order).
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
  for (const bool multi : {false, true}) {
    for (const std::size_t n : kCounts) {
      const ParticleArray p = random_particles(n, 41 + n, g, multi);
      FieldState f1(lg), f2(lg);
      GhostExchange g1(lg, core::DedupPolicy::kHash);
      GhostExchange g2(lg, core::DedupPolicy::kHash);
      g1.begin_iteration();
      g2.begin_iteration();
      deposit(g, p, lg, f1, g1);
      reference_deposit(g, p, lg, f2, g2);
      EXPECT_TRUE(same_bits(f1.jx, f2.jx) && same_bits(f1.jy, f2.jy) &&
                  same_bits(f1.jz, f2.jz) && same_bits(f1.rho, f2.rho))
          << "owned sums differ, multi=" << multi << " n=" << n;
      ASSERT_EQ(g1.entries(), g2.entries());
      if (n >= 64) {
        EXPECT_GT(g1.entries(), 0u) << "no ghost vertex exercised";
      }
      for (std::uint64_t gid = 0; gid < g.nodes(); ++gid)
        ASSERT_EQ(g1.slot_of(gid), g2.slot_of(gid)) << "ghost entry order";
      for (std::uint32_t s = 0; s < g1.entries(); ++s)
        EXPECT_TRUE(same_bits(g1.deposit_data(s), g2.deposit_data(s),
                              GhostExchange::kDeposit))
            << "ghost sums differ, multi=" << multi << " n=" << n;
    }
  }
}

/// The gather + kick loop before the block passes, without the memo.
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
          GhostExchange ghosts(lg, core::DedupPolicy::kHash);
          ghosts.begin_iteration();
          ParticleArray p = random_particles(
              n, 53 + n + static_cast<std::uint64_t>(c.rank()), g, multi);
          deposit(g, p, lg, f, ghosts);
          ghosts.flush_scatter(c, f);
          ghosts.fetch_fields(c, f);
          ParticleArray ref = p;
          const scenario::DriverSpec* d = driven ? &drive : nullptr;
          gather_kick(g, dt, d, 1.25, p, lg, f, ghosts);
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
              << "rank " << r << " multi=" << multi << " driven=" << driven
              << " n=" << n;
      }
    }
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
