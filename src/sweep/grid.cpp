#include "sweep/grid.hpp"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "core/balancer.hpp"
#include "core/policy.hpp"
#include "scenario/scenario.hpp"
#include "sfc/curve.hpp"

namespace picpar::sweep {

namespace {

[[noreturn]] void grid_fail(const std::string& what) {
  throw std::runtime_error("sweep grid: " + what);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

std::vector<std::string> split_values(std::string_view rhs,
                                      const std::string& key) {
  std::vector<std::string> out;
  while (true) {
    const auto comma = rhs.find(',');
    const std::string_view v = trim(rhs.substr(0, comma));
    if (v.empty()) grid_fail("empty value in axis '" + key + "'");
    out.emplace_back(v);
    if (comma == std::string_view::npos) break;
    rhs.remove_prefix(comma + 1);
  }
  return out;
}

template <typename T>
T parse_int(const std::string& text, const std::string& key) {
  T v{};
  const auto [p, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || p != text.data() + text.size())
    grid_fail("axis '" + key + "': not a number: '" + text + "'");
  return v;
}

template <typename T>
std::vector<T> parse_ints(const std::vector<std::string>& vals,
                          const std::string& key) {
  std::vector<T> out;
  out.reserve(vals.size());
  for (const auto& v : vals) out.push_back(parse_int<T>(v, key));
  return out;
}

}  // namespace

SweepGrid parse_grid(std::string_view text) {
  SweepGrid g;
  std::vector<std::string> seen;
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const auto nl = text.find('\n');
    const std::string_view raw = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos)
      grid_fail("line " + std::to_string(line_no) + ": expected 'key = values'");
    const std::string key(trim(line.substr(0, eq)));
    for (const auto& s : seen)
      if (s == key)
        grid_fail("line " + std::to_string(line_no) + ": duplicate axis '" +
                  key + "'");
    seen.push_back(key);
    const auto vals = split_values(line.substr(eq + 1), key);
    if (key == "scenario") g.scenario = vals;
    else if (key == "mesh") g.mesh = vals;
    else if (key == "particles") g.particles = parse_ints<std::uint64_t>(vals, key);
    else if (key == "ranks") g.ranks = parse_ints<int>(vals, key);
    else if (key == "curve") g.curve = vals;
    else if (key == "policy") g.policy = vals;
    else if (key == "seed") g.seed = parse_ints<std::uint64_t>(vals, key);
    else if (key == "iterations") g.iterations = parse_ints<int>(vals, key);
    else
      grid_fail("line " + std::to_string(line_no) + ": unknown axis '" + key +
                "'");
  }
  return g;
}

namespace {

std::pair<std::uint32_t, std::uint32_t> parse_mesh(const std::string& m) {
  const auto x = m.find('x');
  if (x == std::string::npos || x == 0 || x + 1 == m.size())
    grid_fail("mesh '" + m + "' is not 'NXxNY'");
  return {parse_int<std::uint32_t>(m.substr(0, x), "mesh"),
          parse_int<std::uint32_t>(m.substr(x + 1), "mesh")};
}

/// Policy axis: "decision" or "decision+balancer" (e.g. "sar+eulerian").
/// The decision half picks *when* redistribution fires (core::make_policy);
/// the optional balancer half picks *where* the rank bounds land
/// (core::make_balancer), defaulting to the paper's Lagrangian scheme.
void apply_policy(pic::PicParams& p, const std::string& spec) {
  const auto plus = spec.find('+');
  const std::string decision = spec.substr(0, plus);
  core::make_policy(decision);  // validate the spec early
  p.policy = decision;
  if (plus != std::string::npos) {
    const std::string balancer = spec.substr(plus + 1);
    core::make_balancer(balancer);  // validate the spec early
    p.partitioner.balancer = balancer;
  }
}

}  // namespace

pic::PicParams paper_base(std::uint32_t nx, std::uint32_t ny) {
  pic::PicParams p;
  p.grid = mesh::GridDesc(nx, ny);
  p.init.vth = 0.05;
  // A coherent drift (~0.14c) makes the Lagrangian particle subdomains
  // wander off their mesh subdomains over hundreds of iterations — the
  // dynamic effect Figs 16-20 study.
  p.init.drift_ux = 0.12;
  p.init.drift_uy = 0.07;
  p.curve = sfc::CurveKind::kHilbert;
  p.grid_decomp = pic::GridDecomp::kCurve;
  p.solver = pic::FieldSolveKind::kMaxwell;
  p.machine = sim::CostModel::cm5();
  return p;
}

std::vector<GridJob> expand_grid(const SweepGrid& grid) {
  std::vector<GridJob> jobs;
  jobs.reserve(grid.scenario.size() * grid.mesh.size() *
               grid.particles.size() * grid.ranks.size() * grid.curve.size() *
               grid.policy.size() * grid.seed.size() *
               grid.iterations.size());
  for (const auto& name : grid.scenario)
    for (const auto& mesh_spec : grid.mesh)
      for (const auto particles : grid.particles)
        for (const auto ranks : grid.ranks)
          for (const auto& curve : grid.curve)
            for (const auto& policy : grid.policy)
              for (const auto seed : grid.seed)
                for (const auto iterations : grid.iterations) {
                  const auto [nx, ny] = parse_mesh(mesh_spec);
                  if (ranks <= 0) grid_fail("ranks must be positive");
                  if (particles == 0) grid_fail("particles must be positive");
                  if (iterations <= 0) grid_fail("iterations must be positive");
                  GridJob j;
                  j.params = paper_base(nx, ny);
                  try {
                    j.params.scenario = scenario::get_scenario(name).name;
                    j.params.curve = sfc::parse_curve_kind(curve);
                    apply_policy(j.params, policy);
                  } catch (const std::exception& e) {
                    grid_fail(e.what());
                  }
                  j.params.nranks = ranks;
                  j.params.init.total = particles;
                  j.params.init.seed = seed;
                  j.params.iterations = iterations;
                  j.label = name + "/" + mesh_spec + "/p" +
                            std::to_string(particles) + "/r" +
                            std::to_string(ranks) + "/" + curve + "/" +
                            policy + "/s" + std::to_string(seed) + "/i" +
                            std::to_string(iterations);
                  jobs.push_back(std::move(j));
                }
  return jobs;
}

}  // namespace picpar::sweep
