#include "core/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/indexing.hpp"

namespace picpar::core {

const char* invariant_name(Invariant inv) {
  switch (inv) {
    case Invariant::kCount: return "count";
    case Invariant::kFinite: return "finite";
    case Invariant::kDomain: return "domain";
    case Invariant::kKey: return "key";
    case Invariant::kSorted: return "sorted";
    case Invariant::kBalance: return "balance";
    case Invariant::kEnergy: return "energy";
  }
  return "?";
}

InvariantChecker::InvariantChecker(const sfc::Curve& curve,
                                   const mesh::GridDesc& grid,
                                   InvariantConfig cfg)
    : curve_(&curve), grid_(grid), cfg_(cfg) {}

void InvariantChecker::set_reference_count(std::uint64_t global_count) {
  have_ref_count_ = true;
  ref_count_ = global_count;
}

void InvariantChecker::set_reference_energy(double total_energy) {
  have_ref_energy_ = true;
  ref_energy_ = total_energy;
}

namespace {

void add_violation(InvariantReport& rep, Invariant kind, int iter,
                   double measured, double limit, std::string detail) {
  rep.mask |= static_cast<std::uint32_t>(kind);
  rep.violations.push_back({kind, iter, measured, limit, std::move(detail)});
}

}  // namespace

InvariantReport InvariantChecker::check(
    sim::Comm& comm, const particles::ParticleArray& p, int iter,
    const std::vector<std::uint64_t>* rank_upper_bounds, double local_energy) {
  InvariantReport rep;
  const std::size_t n = p.size();
  // Species-in-key encoding: the cell component is key / stride (stride 1
  // for single-species arrays, where this degenerates to the plain key).
  const std::uint64_t stride = p.key_stride();

  // ---- local scans ----
  std::size_t bad_finite = 0, bad_domain = 0, bad_key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // A finite gamma needs finite momenta and also rules out a finite
    // momentum whose |u|^2 overflows (a flipped exponent bit).
    const bool finite = std::isfinite(p.x[i]) && std::isfinite(p.y[i]) &&
                        std::isfinite(p.gamma(i));
    if (!finite) {
      ++bad_finite;
      continue;  // domain/key checks are meaningless on non-finite fields
    }
    if (p.x[i] < 0.0 || p.x[i] >= grid_.lx || p.y[i] < 0.0 ||
        p.y[i] >= grid_.ly) {
      ++bad_domain;
      continue;
    }
    if (cfg_.verify_keys &&
        p.key[i] / stride != key_of(*curve_, grid_, p.x[i], p.y[i]))
      ++bad_key;
  }
  // One op per particle scanned, so validation shows up honestly in the
  // virtual-time overhead.
  comm.charge_ops(n);

  if (bad_finite > 0)
    add_violation(rep, Invariant::kFinite, iter,
                  static_cast<double>(bad_finite), 0.0,
                  std::to_string(bad_finite) + " particle(s) with non-finite fields");
  if (bad_domain > 0)
    add_violation(rep, Invariant::kDomain, iter,
                  static_cast<double>(bad_domain), 0.0,
                  std::to_string(bad_domain) + " particle(s) outside the domain");
  if (bad_key > 0)
    add_violation(rep, Invariant::kKey, iter, static_cast<double>(bad_key),
                  0.0,
                  std::to_string(bad_key) + " stale/corrupt sort key(s)");

  // ---- sorted order within this rank's partition range ----
  if (rank_upper_bounds != nullptr && !rank_upper_bounds->empty()) {
    const int rank = comm.rank();
    bool sorted = true;
    for (std::size_t i = 1; i < n && sorted; ++i)
      sorted = p.key[i - 1] <= p.key[i];
    const std::uint64_t upper =
        (*rank_upper_bounds)[static_cast<std::size_t>(rank)];
    const std::uint64_t lower =
        rank > 0 ? (*rank_upper_bounds)[static_cast<std::size_t>(rank - 1)]
                 : 0;
    bool in_range = true;
    if (n > 0) {
      // Bounds are inclusive upper keys per rank. Keys equal to the
      // previous rank's bound may legally live on either side (ties are
      // split by the order-maintaining balance), so the lower test is >=.
      in_range = p.key[n - 1] <= upper && (rank == 0 || p.key[0] >= lower);
    }
    if (!sorted || !in_range) {
      std::ostringstream os;
      os << (sorted ? "keys outside partition range" : "keys out of order")
         << " on rank " << rank;
      add_violation(rep, Invariant::kSorted, iter, 0.0, 0.0, os.str());
    }
  }

  // ---- collective checks ----
  if (have_ref_count_) {
    const auto total =
        comm.allreduce_sum<std::uint64_t>(static_cast<std::uint64_t>(n));
    if (total != ref_count_)
      add_violation(rep, Invariant::kCount, iter, static_cast<double>(total),
                    static_cast<double>(ref_count_),
                    "global particle count drifted");
  }

  if (cfg_.balance_tolerance > 0.0) {
    const auto max_n =
        comm.allreduce_max<std::uint64_t>(static_cast<std::uint64_t>(n));
    const auto sum_n =
        comm.allreduce_sum<std::uint64_t>(static_cast<std::uint64_t>(n));
    const double mean =
        static_cast<double>(sum_n) / static_cast<double>(comm.size());
    const double bound = cfg_.balance_tolerance * mean + cfg_.balance_slack;
    if (static_cast<double>(max_n) > bound)
      add_violation(rep, Invariant::kBalance, iter,
                    static_cast<double>(max_n), bound,
                    "partition imbalance beyond tolerance");
  }

  if (cfg_.energy_factor > 0.0 && local_energy >= 0.0) {
    const double total = comm.allreduce_sum(local_energy);
    if (!std::isfinite(total)) {
      add_violation(rep, Invariant::kEnergy, iter, total, 0.0,
                    "total energy is non-finite");
    } else if (!have_ref_energy_) {
      set_reference_energy(total);
    } else {
      const double limit =
          cfg_.energy_factor * std::max(ref_energy_, 1e-300);
      if (total > limit)
        add_violation(rep, Invariant::kEnergy, iter, total, limit,
                      "total energy drifted beyond bound");
    }
  }

  // Agree on the verdict so every rank takes the same recovery action.
  rep.mask = comm.allreduce<std::uint32_t>(
      std::vector<std::uint32_t>{rep.mask},
      [](std::uint32_t a, std::uint32_t b) { return a | b; })[0];
  return rep;
}

}  // namespace picpar::core
