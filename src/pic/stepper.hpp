// The one PIC iteration loop (DESIGN.md §14). run_pic and the two Section 3
// baselines run it on every rank and differ only in two components: where
// the mesh lives (MeshLayout) and how particles move (ParticleMover). The
// loop never asks which driver chose them.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>

#include "core/ghost_exchange.hpp"
#include "mesh/fields.hpp"
#include "mesh/partition.hpp"
#include "pic/config.hpp"
#include "pic/result.hpp"
#include "scenario/scenario.hpp"

namespace picpar::pic {

/// What a driver derives from its params before it runs: the scenario, the
/// initial population that every rank slices identically, and the step.
struct RunSetup {
  /// Throws std::invalid_argument, naming `who`, for an empty population,
  /// negative iterations or an unknown scenario.
  RunSetup(const PicParams& params, const char* who);

  const PicParams& params;
  const scenario::Scenario& sc;
  particles::ParticleArray global;
  double dt;
};

/// A RunSetup for a Section 3 baseline, which also refuses what neither
/// baseline can run: a scenario that injects or absorbs particles, fault
/// injection and validation.
RunSetup baseline_setup(const PicParams& params, const char* who);

struct LocalIter;   ///< one rank's record of one iteration
struct RankOutput;  ///< one rank's report of the run

/// Where the deposited sources are summed, how the fields are solved, and
/// where the gather reads them. The loop deposits into `f` through
/// `ghosts`, and the gather kernel reads them back.
class MeshLayout {
public:
  virtual ~MeshLayout() = default;
  /// Scatter phase, after the deposit.
  virtual void sum_sources(sim::Comm& c) = 0;
  /// Field-solve phase.
  virtual void solve(sim::Comm& c) = 0;
  /// Gather phase, before the gather kernel.
  virtual void fetch(sim::Comm& c) = 0;
  /// Whether this rank's owned nodes count toward the mesh's sums.
  virtual bool counted() const { return true; }

  /// This rank's shares of the field energy and of the total charge.
  double field_energy() const;
  double total_charge() const;
  const mesh::LocalGrid& lg() const { return *lg_; }

  mesh::FieldState f;
  core::GhostExchange ghosts;

protected:
  MeshLayout(std::shared_ptr<const mesh::LocalGrid> lg,
             core::DedupPolicy dedup);

private:
  std::shared_ptr<const mesh::LocalGrid> lg_;
};

/// The mesh partitioned over the group, `rank` owning its nodes of `part`
/// (run_pic, Eulerian): ghost sources go to their owners, the
/// params.solver solve runs with halo exchanges, and the gather fetches
/// ghost fields from their owners.
std::unique_ptr<MeshLayout> distributed_layout(const RunSetup& run,
                                               const mesh::GridPartition& part,
                                               int rank);

/// How particles are placed at the start, moved in the Push phase, and
/// realigned with the mesh after an iteration.
class ParticleMover {
public:
  virtual ~ParticleMover() = default;
  /// Fill the empty `mine` with this rank's share of the initial
  /// population. Returns the virtual time the first iteration starts at.
  virtual double place(sim::Comm& c, particles::ParticleArray& mine) = 0;
  /// Before the Scatter phase.
  virtual void begin_iteration(sim::Comm&, int /*iter*/,
                               particles::ParticleArray& /*mine*/,
                               LocalIter&) {}
  /// The Push phase: move every particle by dt, and charge for it.
  virtual void push(sim::Comm& c, particles::ParticleArray& mine,
                    LocalIter& rec) = 0;
  /// After the Push phase, in Phase::kOther.
  virtual void realign(sim::Comm&, int /*iter*/,
                       particles::ParticleArray& /*mine*/,
                       const MeshLayout& /*layout*/, LocalIter&) {}
  /// After a peer failed: returns the iteration to resume at, or -1 to
  /// place afresh. Only a run with crash faults has a failed peer.
  virtual int recover(sim::Comm&, particles::ParticleArray& /*mine*/) {
    throw std::logic_error("a peer failed in a run without crash recovery");
  }
  /// Resident bytes of the mover's sort scratch, for the memory budget.
  virtual std::size_t scratch_bytes() const { return 0; }
};

/// A driver: its machine's fault model and its choice of components.
struct Driver {
  sim::FaultConfig faults;
  std::function<std::unique_ptr<MeshLayout>(sim::Comm& c)> layout;
  std::function<std::unique_ptr<ParticleMover>(sim::Comm& c, RankOutput& out)>
      mover;
  /// Clears the run-wide state the components share, before the
  /// determinism audit runs the program a second time.
  std::function<void()> reset = [] {};
};

/// Run the loop on run.params.nranks ranks and fold their reports.
PicResult run_stepper(const RunSetup& run, const Driver& driver);

}  // namespace picpar::pic
