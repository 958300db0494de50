// The benchmark's named workloads and the digest that pins their outputs.
//
// PicParams are built from a scenario name only — never from
// PicParams::dist and never through bench/common — so removing the legacy
// distribution path cannot silently change what the benchmark runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pic/config.hpp"
#include "pic/result.hpp"

namespace picpar::bench_e2e {

/// Seed whose digests are pinned in the workload table.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  const char* name;
  const char* scenario;
  std::uint32_t nx;
  std::uint32_t ny;
  std::uint64_t particles;
  int ranks;
  int iterations;
  /// Run one untimed run_pic before timing (the small workloads; the large
  /// one is warmed by its own set-up reps).
  bool warmup;
  /// Traced runs also time the tracer, the analyzer, the parallel engine
  /// and an unpinned run (off-path costs; they move no gated metric).
  bool offpath;
  /// Digest::hash() of the full run at kDefaultSeed.
  const char* expect;
};

const std::vector<Workload>& workloads();
/// Throws std::invalid_argument naming the known workloads.
const Workload& find_workload(const std::string& name);

/// The ctest-sized variant: same scenario and policy on a 32x16 mesh,
/// 2,000 particles, p=4, 20 iterations. It has no pinned digest.
Workload shrink(const Workload& w);

pic::PicParams make_params(const Workload& w, std::uint64_t seed);

/// The run outputs the benchmark checks. Two runs of one configuration
/// must agree on every field bit for bit.
struct Digest {
  double vtime_s = 0.0;  ///< virtual makespan (PicResult::total_seconds)
  double field_energy = 0.0;
  double kinetic_energy = 0.0;
  int redistributions = 0;
  std::uint64_t initial = 0;
  std::uint64_t final_particles = 0;
  std::uint64_t emitted = 0;
  std::uint64_t absorbed = 0;

  /// Canonical one-line form (doubles in shortest round-trip form).
  std::string text() const;
  /// FNV-1a 64 of text(), as 16 lowercase hex digits.
  std::string hash() const;
  /// initial + emitted - absorbed == final.
  bool conserved() const {
    return initial + emitted - absorbed == final_particles;
  }
};

Digest digest_of(const pic::PicResult& r);

}  // namespace picpar::bench_e2e
