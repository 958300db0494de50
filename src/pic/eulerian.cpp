#include "pic/eulerian.hpp"

#include "particles/pusher.hpp"
#include "pic/stepper.hpp"

namespace picpar::pic {

using mesh::GridPartition;
using particles::ParticleArray;
using particles::ParticleRec;
using sim::Comm;

namespace {

/// Gledhill & Storey's particle movement: every particle lives on the rank
/// that owns its cell. After each push, the particles that crossed into
/// another rank's cells migrate there; nothing balances the load.
class EulerianMover final : public ParticleMover {
public:
  EulerianMover(const RunSetup& run, const GridPartition& part)
      : run_(run), part_(part) {}

  double place(Comm& c, ParticleArray& mine) override {
    // Every rank filters the global population for the particles whose
    // cell it owns: deterministic, and no communication.
    const ParticleArray& global = run_.global;
    for (std::size_t i = 0; i < global.size(); ++i)
      if (owner(global.x[i], global.y[i]) == c.rank())
        mine.push_back(global.rec(i));
    return c.clock();
  }

  void push(Comm& c, ParticleArray& mine, LocalIter&) override {
    const std::size_t n = mine.size();
    std::vector<std::vector<ParticleRec>> migrate(
        static_cast<std::size_t>(c.size()));
    for (std::size_t i = 0; i < mine.size();) {
      particles::advance_position(run_.params.grid, mine, i, run_.dt);
      const int o = owner(mine.x[i], mine.y[i]);
      if (o != c.rank()) {
        migrate[static_cast<std::size_t>(o)].push_back(mine.rec(i));
        mine.swap_remove(i);
      } else {
        ++i;
      }
    }
    c.charge(static_cast<double>(n) * run_.params.costs.push_per_particle *
             run_.params.machine.delta);
    for (const auto& buf : c.all_to_many(std::move(migrate)))
      for (const auto& r : buf) mine.push_back(r);
  }

private:
  int owner(double x, double y) const {
    return part_.owner(run_.params.grid.cell_of(x, y));
  }

  const RunSetup& run_;
  const GridPartition& part_;
};

}  // namespace

PicResult run_eulerian(const PicParams& params) {
  const RunSetup run = baseline_setup(params, "run_eulerian");
  const auto curve =
      sfc::make_curve(params.curve, params.grid.nx, params.grid.ny);
  const GridPartition part = grid_partition(params, *curve, params.nranks);
  Driver driver;
  driver.layout = [&](Comm& c) {
    return distributed_layout(run, part, c.rank());
  };
  driver.mover = [&](Comm&, RankOutput&) {
    return std::make_unique<EulerianMover>(run, part);
  };
  return run_stepper(run, driver);
}

}  // namespace picpar::pic
