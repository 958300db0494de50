#include "scenario/scenario.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace picpar::scenario {

using particles::InitParams;
using particles::ParticleArray;
using particles::ParticleRec;
using particles::Species;

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;
/// Golden-ratio increment decorrelates per-iteration injector streams from
/// the loadout stream (same constant SplitMix64 uses internally).
constexpr std::uint64_t kSeedMix = 0x9e3779b97f4a7c15ULL;

// ---- loadouts -------------------------------------------------------------
// Migrated scenarios delegate to particles::generate verbatim, so a run
// launched by scenario name is bit-identical to the legacy dist switch.

ParticleArray uniform_loadout(const mesh::GridDesc& g, const InitParams& ip) {
  return particles::generate(particles::Distribution::kUniform, g, ip);
}

ParticleArray irregular_loadout(const mesh::GridDesc& g,
                                const InitParams& ip) {
  return particles::generate(particles::Distribution::kGaussian, g, ip);
}

ParticleArray two_stream_loadout(const mesh::GridDesc& g,
                                 const InitParams& ip) {
  return particles::generate(particles::Distribution::kTwoStream, g, ip);
}

/// Weibel-like setup: species 0 is a light electron population with a hot
/// out-of-plane axis (uz spread 4x the in-plane spread), species 1 a heavy
/// cold ion background of opposite charge (global neutrality). Alternating
/// assignment keeps the two populations interleaved in memory and exactly
/// balanced. A transverse B seed (registry entry) lets filaments grow.
ParticleArray weibel_loadout(const mesh::GridDesc& g, const InitParams& ip) {
  const double qe =
      ip.omega_p > 0.0
          ? -particles::macro_charge(g, ip.total, 1.0, ip.omega_p)
          : -1.0;
  ParticleArray p(std::vector<Species>{{qe, 1.0}, {-qe, 100.0}});
  p.reserve(ip.total);
  Rng rng(ip.seed);
  for (std::uint64_t i = 0; i < ip.total; ++i) {
    ParticleRec r;
    r.x = rng.uniform(0.0, g.lx);
    r.y = rng.uniform(0.0, g.ly);
    const std::uint64_t sp = i % 2;
    if (sp == 0) {
      r.ux = ip.vth * rng.normal();
      r.uy = ip.vth * rng.normal();
      r.uz = 4.0 * ip.vth * rng.normal();
    } else {
      r.ux = 0.2 * ip.vth * rng.normal();
      r.uy = 0.2 * ip.vth * rng.normal();
      r.uz = 0.2 * ip.vth * rng.normal();
    }
    r.key = sp;  // species-in-key low bits; assign_keys preserves them
    p.push_back(r);
  }
  return p;
}

/// Beam-into-plasma: species 0 is a thermal electron plasma filling the
/// domain, species 1 a denser electron beam starting as a slab at the x = 0
/// edge with a directed +x drift. Every fifth particle is beam, so the
/// initial beam carries 20% of the population; the injector (registry
/// entry) keeps feeding it while the +x boundary absorbs what leaves.
ParticleArray beam_into_plasma_loadout(const mesh::GridDesc& g,
                                       const InitParams& ip) {
  const double qe =
      ip.omega_p > 0.0
          ? -particles::macro_charge(g, ip.total, 1.0, ip.omega_p)
          : -1.0;
  ParticleArray p(std::vector<Species>{{qe, 1.0}, {qe, 1.0}});
  p.reserve(ip.total);
  Rng rng(ip.seed);
  for (std::uint64_t i = 0; i < ip.total; ++i) {
    ParticleRec r;
    const std::uint64_t sp = (i % 5 == 4) ? 1 : 0;
    if (sp == 1) {
      r.x = rng.uniform(0.0, 0.15 * g.lx);
      r.y = rng.uniform(0.0, g.ly);
      r.ux = 0.4 + ip.vth * rng.normal();
    } else {
      r.x = rng.uniform(0.0, g.lx);
      r.y = rng.uniform(0.0, g.ly);
      r.ux = ip.vth * rng.normal();
    }
    r.uy = ip.vth * rng.normal();
    r.uz = ip.vth * rng.normal();
    r.key = sp;
    p.push_back(r);
  }
  return p;
}

ParticleArray hotspot_loadout(const mesh::GridDesc& g, const InitParams& ip) {
  return particles::generate(particles::Distribution::kUniform, g, ip);
}

const std::vector<Scenario>& registry() {
  static const std::vector<Scenario> scenarios = [] {
    std::vector<Scenario> v;

    {
      Scenario s;
      s.name = "uniform";
      s.summary = "uniform thermal plasma (the paper's regular case)";
      s.species = {{"electron", 1.0}};
      s.loadout = uniform_loadout;
      v.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "irregular_beam";
      s.summary =
          "center-concentrated blob (the paper's irregular case, Fig 15)";
      s.species = {{"electron", 1.0}};
      s.loadout = irregular_loadout;
      v.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "two_stream";
      s.summary = "counter-streaming electron beams split by parity";
      s.species = {{"electron", 1.0}};
      s.loadout = two_stream_loadout;
      v.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "weibel";
      s.summary =
          "anisotropic electrons over a cold heavy ion background, "
          "seeded transverse B";
      s.species = {{"electron", 1.0}, {"ion", 100.0}};
      s.field_seed.enabled = true;
      s.field_seed.target = SeedField::kBz;
      s.field_seed.amp = 1e-3;
      s.field_seed.mode_x = 2;
      s.loadout = weibel_loadout;
      v.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "beam_into_plasma";
      s.summary =
          "thermal plasma plus an injected electron beam; open x boundary";
      s.species = {{"plasma_electron", 1.0}, {"beam_electron", 1.0}};
      s.boundary = Boundary::kAbsorbX;
      s.injector.enabled = true;
      s.injector.rate_fraction = 0.002;
      s.injector.species = 1;
      s.injector.vth = 0.02;
      s.injector.drift_ux = 0.4;
      s.injector.edge_fraction = 0.05;
      s.loadout = beam_into_plasma_loadout;
      v.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "moving_hotspot";
      s.summary =
          "uniform plasma stirred by a rotating Gaussian attractor driver";
      s.species = {{"electron", 1.0}};
      s.driver.enabled = true;
      s.driver.amp = 0.02;
      s.driver.omega = 0.05;
      s.driver.sigma_fraction = 0.15;
      s.loadout = hotspot_loadout;
      v.push_back(std::move(s));
    }
    return v;
  }();
  return scenarios;
}

}  // namespace

const Scenario* find_scenario(const std::string& name) {
  for (const auto& s : registry())
    if (s.name == name) return &s;
  return nullptr;
}

const Scenario& get_scenario(const std::string& name) {
  const Scenario* s = find_scenario(name);
  if (s == nullptr) {
    std::string known;
    for (const auto& r : registry()) known += " " + r.name;
    throw std::invalid_argument("unknown scenario '" + name +
                                "'; known:" + known);
  }
  return *s;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> out;
  out.reserve(registry().size());
  for (const auto& s : registry()) out.push_back(s.name);
  return out;
}

std::uint64_t injector_rate(const Scenario& sc, std::uint64_t total) {
  if (!sc.injector.enabled) return 0;
  const double r = sc.injector.rate_fraction * static_cast<double>(total);
  const auto n = static_cast<std::uint64_t>(r + 0.5);
  return n > 0 ? n : 1;
}

std::vector<ParticleRec> injector_batch(const Scenario& sc,
                                        const mesh::GridDesc& grid,
                                        const InitParams& init, int iter) {
  std::vector<ParticleRec> batch;
  const std::uint64_t rate = injector_rate(sc, init.total);
  if (rate == 0) return batch;
  const InjectorSpec& inj = sc.injector;

  // One fresh stream per iteration, identical on every rank: no draw-order
  // coupling with anything else in the run.
  Rng rng(init.seed + kSeedMix * (static_cast<std::uint64_t>(iter) + 1));
  batch.reserve(rate);
  for (std::uint64_t i = 0; i < rate; ++i) {
    ParticleRec r;
    r.x = rng.uniform(0.0, inj.edge_fraction * grid.lx);
    r.y = rng.uniform(0.0, grid.ly);
    r.ux = inj.drift_ux + inj.vth * rng.normal();
    r.uy = inj.vth * rng.normal();
    r.uz = inj.vth * rng.normal();
    r.key = static_cast<std::uint64_t>(inj.species);
    batch.push_back(r);
  }
  return batch;
}

DriverField driver_field(const DriverSpec& d, const mesh::GridDesc& grid,
                         double t, double x, double y) {
  // Attractive Gaussian hotspot circling the domain center. No periodic
  // wrap of the offset: the envelope suppresses the field long before the
  // nearest-image distinction matters for the chosen radius.
  const double cx = grid.lx * (0.5 + 0.25 * std::cos(d.omega * t));
  const double cy = grid.ly * (0.5 + 0.25 * std::sin(d.omega * t));
  const double dx = x - cx;
  const double dy = y - cy;
  const double s = d.sigma_fraction * grid.lx;
  const double env = std::exp(-(dx * dx + dy * dy) / (2.0 * s * s));
  return {-d.amp * dx * env, -d.amp * dy * env};
}

void apply_field_seed(const FieldSeedSpec& fs, const mesh::GridDesc& grid,
                      const mesh::LocalGrid& lg, mesh::FieldState& f) {
  if (!fs.enabled) return;
  const double k = kTwoPi * static_cast<double>(fs.mode_x) / grid.lx;
  std::vector<double>& target = fs.target == SeedField::kEx ? f.ex : f.bz;
  for (std::size_t l = 0; l < lg.owned(); ++l) {
    const std::uint64_t gid = lg.gid_of(l);
    const double x = static_cast<double>(grid.node_x(gid)) * grid.dx();
    target[l] += fs.amp * std::sin(k * x);
  }
}

}  // namespace picpar::scenario
