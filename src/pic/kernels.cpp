// Built with -fno-math-errno (src/pic/CMakeLists.txt) so that GCC can
// vectorize std::sqrt in the block passes; the flag changes no value,
// only whether a negative argument sets errno.
#include "pic/kernels.hpp"

#include <algorithm>

#include "particles/interpolate.hpp"
#include "particles/pusher.hpp"

namespace picpar::pic {

using particles::ParticleArray;

namespace {

/// Particles per block pass. The block scratch (2.3 KB at most, in the
/// gather) lives on the calling rank's stack; keep it at or below 3.5 KB,
/// since one more 4 KiB page per rank fiber costs 4 MiB at p = 1024
/// (DESIGN.md §18).
constexpr std::size_t kBlock = 32;

}  // namespace

void quotients_block(std::size_t n, double dx, double dy,
                     const double* __restrict__ x,
                     const double* __restrict__ y, double* __restrict__ gx,
                     double* __restrict__ gy) {
  for (std::size_t j = 0; j < n; ++j) {
    gx[j] = x[j] / dx;
    gy[j] = y[j] / dy;
  }
}

void currents_block(std::size_t n, const double* __restrict__ qv,
                    const double* __restrict__ ux,
                    const double* __restrict__ uy,
                    const double* __restrict__ uz, double* __restrict__ jx,
                    double* __restrict__ jy, double* __restrict__ jz) {
  for (std::size_t j = 0; j < n; ++j) {
    const double gamma = particles::lorentz_gamma(ux[j], uy[j], uz[j]);
    jx[j] = qv[j] * ux[j] / gamma;
    jy[j] = qv[j] * uy[j] / gamma;
    jz[j] = qv[j] * uz[j] / gamma;
  }
}

void kick_block(std::size_t n, const double* __restrict__ qm,
                const double* __restrict__ ex, const double* __restrict__ ey,
                const double* __restrict__ ez, const double* __restrict__ bx,
                const double* __restrict__ by, const double* __restrict__ bz,
                double* __restrict__ ux, double* __restrict__ uy,
                double* __restrict__ uz) {
  for (std::size_t j = 0; j < n; ++j)
    particles::boris_kick_scaled(qm[j], ex[j], ey[j], ez[j], bx[j], by[j],
                                 bz[j], ux[j], uy[j], uz[j]);
}

void advance_block(std::size_t n, double dt, const double* __restrict__ x,
                   const double* __restrict__ y,
                   const double* __restrict__ ux,
                   const double* __restrict__ uy,
                   const double* __restrict__ uz, double* __restrict__ x_new,
                   double* __restrict__ y_new) {
  for (std::size_t j = 0; j < n; ++j) {
    const double gamma = particles::lorentz_gamma(ux[j], uy[j], uz[j]);
    x_new[j] = x[j] + dt * ux[j] / gamma;
    y_new[j] = y[j] + dt * uy[j] / gamma;
  }
}

void deposit(const mesh::GridDesc& grid, const ParticleArray& p,
             mesh::FieldState& f, core::GhostExchange& ghosts) {
  const double dx = grid.dx();
  const double dy = grid.dy();
  const double inv_cell = 1.0 / (dx * dy);
  const std::size_t n = p.size();
  const std::uint32_t owned = ghosts.owned();
  std::uint32_t* const record = ghosts.record(n);
  double gx[kBlock] = {}, gy[kBlock] = {};
  double qv[kBlock] = {}, jx[kBlock] = {}, jy[kBlock] = {},
         jz[kBlock] = {};
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t nb = std::min(kBlock, n - b);
    quotients_block(nb, dx, dy, p.x.data() + b, p.y.data() + b, gx, gy);
    for (std::size_t j = 0; j < nb; ++j)
      qv[j] = p.charge_of(b + j) * inv_cell;
    currents_block(nb, qv, p.ux.data() + b, p.uy.data() + b,
                   p.uz.data() + b, jx, jy, jz);
    for (std::size_t j = 0; j < nb; ++j) {
      const auto st = particles::cic_stencil_of_quotients(grid, gx[j], gy[j]);
      // Resolve all four vertices before accumulating: a new ghost slot
      // may move deposit_data's storage. A local array, not the record,
      // lets the compiler keep the exchange's policy and owned count in
      // registers across the four lookups.
      std::uint32_t dest[4];
      for (int k = 0; k < 4; ++k) dest[k] = ghosts.resolve(st.node[k]);
      std::copy_n(dest, 4, record + 4 * (b + j));
      for (int k = 0; k < 4; ++k) {
        const double w = st.weight[k];
        const std::uint32_t d = dest[k];
        if (d < owned) {
          f.jx[d] += w * jx[j];
          f.jy[d] += w * jy[j];
          f.jz[d] += w * jz[j];
          f.rho[d] += w * qv[j];
        } else {
          double* slot = ghosts.deposit_data(d - owned);
          slot[0] += w * jx[j];
          slot[1] += w * jy[j];
          slot[2] += w * jz[j];
          slot[3] += w * qv[j];
        }
      }
    }
  }
}

void gather_kick(const mesh::GridDesc& grid, double dt,
                 const scenario::DriverSpec* driver, double t,
                 ParticleArray& p, const mesh::FieldState& f,
                 const core::GhostExchange& ghosts) {
  const double dx = grid.dx();
  const double dy = grid.dy();
  const double qm0 = particles::boris_factor(p.charge(), p.mass(), dt);
  const bool multi = p.nspecies() > 1;
  const std::size_t n = p.size();
  const std::uint32_t owned = ghosts.owned();
  // Positions are unchanged since the deposit, so its record still names
  // every particle's four destinations.
  const std::uint32_t* const record = ghosts.recorded(n);
  double gx[kBlock] = {}, gy[kBlock] = {}, qm[kBlock] = {};
  double ex[kBlock] = {}, ey[kBlock] = {}, ez[kBlock] = {};
  double bx[kBlock] = {}, by[kBlock] = {}, bz[kBlock] = {};
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t nb = std::min(kBlock, n - b);
    quotients_block(nb, dx, dy, p.x.data() + b, p.y.data() + b, gx, gy);
    for (std::size_t j = 0; j < nb; ++j) {
      const std::size_t i = b + j;
      const auto st = particles::cic_stencil_of_quotients(grid, gx[j], gy[j]);
      const std::uint32_t* const dest = record + 4 * i;
      // picpar-lint: allow(float-reduction-order) fixed 4-point stencil
      particles::LocalFields lf;
      for (int k = 0; k < 4; ++k) {
        const double w = st.weight[k];
        const std::uint32_t d = dest[k];
        if (d < owned) {
          lf.ex += w * f.ex[d];
          lf.ey += w * f.ey[d];
          lf.ez += w * f.ez[d];
          lf.bx += w * f.bx[d];
          lf.by += w * f.by[d];
          lf.bz += w * f.bz[d];
        } else {
          const double* s = ghosts.field_data(d - owned);
          lf.ex += w * s[0];
          lf.ey += w * s[1];
          lf.ez += w * s[2];
          lf.bx += w * s[3];
          lf.by += w * s[4];
          lf.bz += w * s[5];
        }
      }
      // Scenario driver: analytic E contribution, a pure function of
      // (virtual time, position). Branch-gated so other runs never touch
      // the interpolated values (even += 0.0 could flip a -0.0).
      if (driver != nullptr) {
        const auto dv =
            scenario::driver_field(*driver, grid, t, p.x[i], p.y[i]);
        lf.ex += dv.ex;
        lf.ey += dv.ey;
      }
      qm[j] = multi ? particles::boris_factor(p.charge_of(i), p.mass_of(i),
                                              dt)
                    : qm0;
      ex[j] = lf.ex;
      ey[j] = lf.ey;
      ez[j] = lf.ez;
      bx[j] = lf.bx;
      by[j] = lf.by;
      bz[j] = lf.bz;
    }
    kick_block(nb, qm, ex, ey, ez, bx, by, bz, p.ux.data() + b,
               p.uy.data() + b, p.uz.data() + b);
  }
}

std::uint64_t push(const mesh::GridDesc& grid, double dt, bool absorb_x,
                   const sfc::IndexCache& keys, ParticleArray& p) {
  const double dx = grid.dx();
  const double dy = grid.dy();
  const std::uint64_t stride = p.key_stride();
  const std::size_t n = p.size();
  double x_new[kBlock] = {}, y_new[kBlock] = {};
  // Survivors are compacted to the write index w, which keeps their
  // relative order (swap_remove would scramble the curve order the
  // incremental sort relies on). Without absorption w == i throughout.
  // Writes land at w <= i, never in a block not yet advanced.
  std::size_t w = 0;
  std::uint64_t absorbed = 0;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t nb = std::min(kBlock, n - b);
    advance_block(nb, dt, p.x.data() + b, p.y.data() + b, p.ux.data() + b,
                  p.uy.data() + b, p.uz.data() + b, x_new, y_new);
    for (std::size_t j = 0; j < nb; ++j) {
      const std::size_t i = b + j;
      double x = x_new[j];
      if (!absorb_x) {
        x = grid.wrap_x(x);
      } else if (x < 0.0 || x >= grid.lx) {
        ++absorbed;
        continue;
      }
      const double y = grid.wrap_y(y_new[j]);
      const std::uint64_t key =
          keys[grid.cell_of(x, y, dx, dy)] * stride + p.species_of(i);
      p.x[w] = x;
      p.y[w] = y;
      if (w != i) {
        p.ux[w] = p.ux[i];
        p.uy[w] = p.uy[i];
        p.uz[w] = p.uz[i];
      }
      p.key[w] = key;
      ++w;
    }
  }
  if (w != n) p.truncate(w);
  return absorbed;
}

}  // namespace picpar::pic
