#include "workloads.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "sim/faults.hpp"

namespace picpar::bench_e2e {

const std::vector<Workload>& workloads() {
  // Why each workload exists is in BENCHMARK.json and README.md; the sizes
  // keep one run_pic call near 2 s on one core, except uniform_p1024 whose
  // cost is the p=1024 machine itself.
  static const std::vector<Workload> table = {
      // Kernel-bound: ~16K particles per rank, few handoffs.
      {"beam_p4", "irregular_beam", 256, 128, 65536, 4, 300, true, false,
       "3903c106638a247c"},
      // The paper's Fig-17 configuration.
      {"beam_p32", "irregular_beam", 128, 64, 32768, 32, 400, true, true,
       "2a828ca051dc5398"},
      // Two species, injection, absorbing wall, frequent SAR.
      {"inject_p8", "beam_into_plasma", 256, 128, 32768, 8, 300, true, true,
       "7178b17ae73cab8a"},
      // Sixteen particles per rank: the simulated machine is the cost.
      {"uniform_p1024", "uniform", 128, 64, 16384, 1024, 8, false, false,
       "88e84a54836a8287"},
  };
  return table;
}

const Workload& find_workload(const std::string& name) {
  std::string known;
  for (const auto& w : workloads()) {
    if (name == w.name) return w;
    known += known.empty() ? "" : ", ";
    known += w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " +
                              known + ")");
}

Workload shrink(const Workload& w) {
  Workload s = w;
  s.nx = 32;
  s.ny = 16;
  s.particles = 2000;
  s.ranks = 4;
  s.iterations = 20;
  s.expect = "";
  return s;
}

pic::PicParams make_params(const Workload& w, std::uint64_t seed) {
  pic::PicParams p;
  p.grid = mesh::GridDesc(w.nx, w.ny);
  p.nranks = w.ranks;
  p.scenario = w.scenario;
  p.init.total = w.particles;
  p.init.seed = seed;
  // The paper's thermal spread plus a coherent drift that walks the
  // particle subdomains off their mesh subdomains, so SAR has work to do.
  p.init.vth = 0.05;
  p.init.drift_ux = 0.12;
  p.init.drift_uy = 0.07;
  p.curve = sfc::CurveKind::kHilbert;
  p.grid_decomp = pic::GridDecomp::kCurve;
  p.solver = pic::FieldSolveKind::kMaxwell;
  p.machine = sim::CostModel::cm5();
  p.policy = "sar";
  p.iterations = w.iterations;
  return p;
}

namespace {

void append_double(std::string& s, double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  s.append(buf, r.ptr);
}

}  // namespace

std::string Digest::text() const {
  std::string s = "vtime=";
  append_double(s, vtime_s);
  s += " fe=";
  append_double(s, field_energy);
  s += " ke=";
  append_double(s, kinetic_energy);
  s += " redist=" + std::to_string(redistributions) +
       " initial=" + std::to_string(initial) +
       " final=" + std::to_string(final_particles) +
       " emitted=" + std::to_string(emitted) +
       " absorbed=" + std::to_string(absorbed);
  return s;
}

std::string Digest::hash() const {
  const std::string t = text();
  const std::uint64_t h =
      sim::fnv1a(reinterpret_cast<const std::byte*>(t.data()), t.size());
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Digest digest_of(const pic::PicResult& r) {
  Digest d;
  d.vtime_s = r.total_seconds;
  d.field_energy = r.field_energy;
  d.kinetic_energy = r.kinetic_energy;
  d.redistributions = r.redistributions;
  d.initial = r.initial_particles;
  d.final_particles = r.final_particles;
  d.emitted = r.emitted_particles;
  d.absorbed = r.absorbed_particles;
  return d;
}

}  // namespace picpar::bench_e2e
