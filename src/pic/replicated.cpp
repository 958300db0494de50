#include "pic/replicated.hpp"

#include <algorithm>
#include <stdexcept>

#include "mesh/maxwell.hpp"
#include "particles/pusher.hpp"
#include "pic/stepper.hpp"

namespace picpar::pic {

using mesh::LocalGrid;
using particles::ParticleArray;
using sim::Comm;

namespace {

/// Element-wise global sum of several full arrays (binomial allreduce).
void global_sum(Comm& comm, std::vector<std::vector<double>*> arrays) {
  std::vector<double> packed;
  std::size_t total = 0;
  for (auto* a : arrays) total += a->size();
  packed.reserve(total);
  for (auto* a : arrays) packed.insert(packed.end(), a->begin(), a->end());
  packed = comm.allreduce(std::move(packed),
                          [](double a, double b) { return a + b; });
  std::size_t pos = 0;
  for (auto* a : arrays) {
    std::copy(packed.begin() + static_cast<long>(pos),
              packed.begin() + static_cast<long>(pos + a->size()), a->begin());
    pos += a->size();
  }
}

/// Concatenate per-rank chunks [b, e) of several full arrays to everyone.
void global_concat(Comm& comm, std::uint64_t b, std::uint64_t e,
                   const std::vector<std::uint64_t>& bounds,
                   std::vector<std::vector<double>*> arrays) {
  std::vector<double> mine;
  mine.reserve((e - b) * arrays.size());
  for (auto* a : arrays)
    mine.insert(mine.end(), a->begin() + static_cast<long>(b),
                a->begin() + static_cast<long>(e));
  std::vector<std::size_t> offsets;
  auto cat = comm.allgatherv(mine, &offsets);
  for (int r = 0; r < comm.size(); ++r) {
    const std::uint64_t rb = bounds[static_cast<std::size_t>(r)];
    const std::uint64_t re = bounds[static_cast<std::size_t>(r) + 1];
    std::size_t pos = offsets[static_cast<std::size_t>(r)];
    for (auto* a : arrays) {
      std::copy(cat.begin() + static_cast<long>(pos),
                cat.begin() + static_cast<long>(pos + (re - rb)),
                a->begin() + static_cast<long>(rb));
      pos += re - rb;
    }
  }
}

/// Lubeck & Faber's mesh: every rank holds all of it, as the one-rank
/// whole-mesh grid that the ranks share read-only (owned nodes in gid
/// order, no ghosts, so the kernels never touch the ghost exchange). The
/// Scatter phase sums the sources over all ranks; the field solve updates
/// one contiguous chunk of nodes per rank and concatenates the chunks to
/// everyone; the gather reads the local copy.
class ReplicatedLayout final : public MeshLayout {
public:
  ReplicatedLayout(const RunSetup& run, std::shared_ptr<const LocalGrid> whole,
                   const mesh::MaxwellSolver& maxwell, const Comm& c)
      : MeshLayout(std::move(whole), core::DedupPolicy::kHash),
        params_(run.params),
        maxwell_(maxwell),
        rank_(c.rank()),
        bounds_(static_cast<std::size_t>(c.size()) + 1) {
    const std::uint64_t m = params_.grid.nodes();
    const auto p = static_cast<std::uint64_t>(c.size());
    for (std::uint64_t r = 0; r <= p; ++r) bounds_[r] = r * m / p;
  }

  void sum_sources(Comm& c) override {
    global_sum(c, {&f.jx, &f.jy, &f.jz, &f.rho});
  }

  void solve(Comm& c) override {
    if (params_.solver != FieldSolveKind::kMaxwell) return;
    const std::uint64_t b = bounds_[static_cast<std::size_t>(rank_)];
    const std::uint64_t e = bounds_[static_cast<std::size_t>(rank_) + 1];
    maxwell_.half_step_b(f, b, e);
    global_concat(c, b, e, bounds_, {&f.bx, &f.by, &f.bz});
    maxwell_.step_e(f, b, e);
    global_concat(c, b, e, bounds_, {&f.ex, &f.ey, &f.ez});
    maxwell_.half_step_b(f, b, e);
    global_concat(c, b, e, bounds_, {&f.bx, &f.by, &f.bz});
    c.charge(static_cast<double>(e - b) * params_.costs.field_per_node *
             params_.machine.delta);
  }

  void fetch(Comm&) override {}

  // Every rank holds the same mesh: rank 0 counts it.
  bool counted() const override { return rank_ == 0; }

private:
  const PicParams& params_;
  const mesh::MaxwellSolver& maxwell_;
  const int rank_;
  std::vector<std::uint64_t> bounds_;  ///< field-solve chunk of rank r
};

/// Lubeck & Faber's particle movement: each rank keeps run_pic's initial
/// slice for the whole run, so the particle load stays balanced and
/// nothing is ever realigned.
class FixedMover final : public ParticleMover {
public:
  explicit FixedMover(const RunSetup& run) : run_(run) {}

  double place(Comm& c, ParticleArray& mine) override {
    append_initial_slice(run_.global, c.rank(), c.size(), mine);
    return c.clock();
  }

  void push(Comm& c, ParticleArray& mine, LocalIter&) override {
    const std::size_t n = mine.size();
    for (std::size_t i = 0; i < n; ++i)
      particles::advance_position(run_.params.grid, mine, i, run_.dt);
    c.charge(static_cast<double>(n) * run_.params.costs.push_per_particle *
             run_.params.machine.delta);
  }

private:
  const RunSetup& run_;
};

}  // namespace

PicResult run_replicated(const PicParams& params) {
  if (params.solver == FieldSolveKind::kPoisson)
    throw std::invalid_argument(
        "run_replicated: solver: the replicated grid has no Poisson solve");
  const RunSetup run = baseline_setup(params, "run_replicated");
  const mesh::GridPartition whole_mesh =
      mesh::GridPartition::block(params.grid, 1, 1);
  const auto whole = std::make_shared<const LocalGrid>(whole_mesh, 0);
  const mesh::MaxwellSolver maxwell(*whole, run.dt);
  Driver driver;
  driver.layout = [&](Comm& c) {
    return std::make_unique<ReplicatedLayout>(run, whole, maxwell, c);
  };
  driver.mover = [&](Comm&, RankOutput&) {
    return std::make_unique<FixedMover>(run);
  };
  return run_stepper(run, driver);
}

}  // namespace picpar::pic
