// Checkpoint/restart: evolve a particle population, checkpoint it to a
// file, load the file back and verify the populations agree bit for bit —
// the persistence round trip of a long production campaign.
#include <filesystem>
#include <iostream>

#include "particles/init.hpp"
#include "particles/io.hpp"
#include "particles/pusher.hpp"
#include "util/cli.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("checkpoint_restart", "Particle checkpoint/restart round trip");
  auto particles = cli.flag<long>("particles", 8192, "global particle count");
  auto path = cli.flag<std::string>(
      "path", (std::filesystem::temp_directory_path() / "picpar_ckpt.bin").string(),
      "checkpoint file");
  cli.parse(argc, argv);

  const mesh::GridDesc grid(64, 32);
  particles::InitParams init;
  init.total = static_cast<std::uint64_t>(*particles);
  init.drift_ux = 0.1;

  // Phase 1: generate and evolve a population ballistically, checkpoint it.
  auto population =
      particles::generate(particles::Distribution::kGaussian, grid, init);
  for (int step = 0; step < 50; ++step)
    for (std::size_t i = 0; i < population.size(); ++i)
      particles::advance_position(grid, population, i, 0.5);
  particles::save_particles(*path, population);
  std::cout << "checkpointed " << population.size() << " particles to "
            << *path << " ("
            << std::filesystem::file_size(*path) / 1024 << " KiB)\n";

  // Phase 2: restart and verify bit-exact agreement.
  const auto restored = particles::load_particles(*path);
  bool ok = restored.size() == population.size() &&
            restored.charge() == population.charge();
  for (std::size_t i = 0; ok && i < restored.size(); ++i)
    ok = restored.x[i] == population.x[i] &&
         restored.y[i] == population.y[i] &&
         restored.ux[i] == population.ux[i];
  std::cout << (ok ? "restart verified: populations are bit-identical\n"
                   : "ERROR: restored population differs!\n");

  std::filesystem::remove(*path);
  return ok ? 0 : 1;
}
