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

/// Particles per block pass. The block scratch (3.5 KB at most) lives on
/// the calling rank's stack.
constexpr std::size_t kBlock = 64;

/// Per-cell stencil-destination memo (DESIGN.md §10), shared by deposit
/// and gather. Particles are kept sorted along the curve, so consecutive
/// particles usually share a cell: the four vertex destinations (owned
/// local index or ghost slot index) are resolved once per run of same-cell
/// particles. Slot *indices* are kept, not pointers, because the ghost
/// table reallocates as it grows. Lookups happen in particle order, so
/// ghost entries are created in the same first-touch order and every
/// message stays byte-identical.
struct StencilMemo {
  std::uint64_t cell = ~std::uint64_t{0};
  bool owned[4] = {false, false, false, false};
  std::uint32_t idx[4] = {0, 0, 0, 0};

  /// Resolve st's vertices unless st lies in the memoized cell; `slot_of`
  /// maps a non-owned vertex to its ghost slot index.
  template <class SlotOf>
  void resolve(const particles::CicStencil& st, const mesh::LocalGrid& lg,
               SlotOf slot_of) {
    if (st.node[0] == cell) return;
    cell = st.node[0];
    for (int k = 0; k < 4; ++k) {
      const auto l = lg.local_of(st.node[k]);
      owned[k] = l != mesh::kNoLocal && l < lg.owned();
      idx[k] = owned[k] ? l : slot_of(st.node[k]);
    }
  }
};

}  // namespace

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
             const mesh::LocalGrid& lg, mesh::FieldState& f,
             core::GhostExchange& ghosts) {
  const double dx = grid.dx();
  const double dy = grid.dy();
  const double inv_cell = 1.0 / (dx * dy);
  const std::size_t n = p.size();
  StencilMemo memo;
  double qv[kBlock] = {}, jx[kBlock] = {}, jy[kBlock] = {},
         jz[kBlock] = {};
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t nb = std::min(kBlock, n - b);
    for (std::size_t j = 0; j < nb; ++j)
      qv[j] = p.charge_of(b + j) * inv_cell;
    currents_block(nb, qv, p.ux.data() + b, p.uy.data() + b,
                   p.uz.data() + b, jx, jy, jz);
    for (std::size_t j = 0; j < nb; ++j) {
      const std::size_t i = b + j;
      const auto st = particles::cic_stencil(grid, p.x[i], p.y[i], dx, dy);
      memo.resolve(st, lg, [&](std::uint64_t gid) {
        return ghosts.deposit_slot_index(gid);
      });
      for (int k = 0; k < 4; ++k) {
        const double w = st.weight[k];
        if (memo.owned[k]) {
          const auto l = memo.idx[k];
          f.jx[l] += w * jx[j];
          f.jy[l] += w * jy[j];
          f.jz[l] += w * jz[j];
          f.rho[l] += w * qv[j];
        } else {
          double* slot = ghosts.deposit_data(memo.idx[k]);
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
                 ParticleArray& p, const mesh::LocalGrid& lg,
                 const mesh::FieldState& f, const core::GhostExchange& ghosts) {
  const double dx = grid.dx();
  const double dy = grid.dy();
  const double qm0 = particles::boris_factor(p.charge(), p.mass(), dt);
  const bool multi = p.nspecies() > 1;
  const std::size_t n = p.size();
  StencilMemo memo;
  double qm[kBlock] = {};
  double ex[kBlock] = {}, ey[kBlock] = {}, ez[kBlock] = {};
  double bx[kBlock] = {}, by[kBlock] = {}, bz[kBlock] = {};
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t nb = std::min(kBlock, n - b);
    for (std::size_t j = 0; j < nb; ++j) {
      const std::size_t i = b + j;
      // Positions are unchanged since the deposit, so every vertex is
      // either owned or already has a ghost slot.
      const auto st = particles::cic_stencil(grid, p.x[i], p.y[i], dx, dy);
      memo.resolve(st, lg,
                   [&](std::uint64_t gid) { return ghosts.slot_of(gid); });
      // picpar-lint: allow(float-reduction-order) fixed 4-point stencil
      particles::LocalFields lf;
      for (int k = 0; k < 4; ++k) {
        const double w = st.weight[k];
        if (memo.owned[k]) {
          const auto l = memo.idx[k];
          lf.ex += w * f.ex[l];
          lf.ey += w * f.ey[l];
          lf.ez += w * f.ez[l];
          lf.bx += w * f.bx[l];
          lf.by += w * f.by[l];
          lf.bz += w * f.bz[l];
        } else {
          const double* s = ghosts.field_data(memo.idx[k]);
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
