#include "core/partitioner.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "core/indexing.hpp"
#include "core/load_balance.hpp"
#include "util/sparse_rank.hpp"

namespace picpar::core {

using particles::ParticleArray;
using particles::ParticleRec;

namespace {
constexpr std::uint64_t kMaxKey = std::numeric_limits<std::uint64_t>::max();
std::atomic<std::uint64_t> sample_sorts{0};
}  // namespace

std::uint64_t splitter_sample_sorts() {
  return sample_sorts.load(std::memory_order_relaxed);
}

ParticlePartitioner::ParticlePartitioner(
    const sfc::Curve& curve, const mesh::GridDesc& grid,
    std::shared_ptr<const sfc::IndexCache> keys, PartitionerConfig cfg)
    : curve_(&curve),
      grid_(grid),
      cfg_(cfg),
      balancer_(make_balancer(cfg.balancer)),
      key_cache_(std::move(keys)) {
  if (cfg.buckets_per_rank < 1 || cfg.samples_per_rank < 1)
    throw std::invalid_argument("PartitionerConfig: counts must be >= 1");
  if (!key_cache_ || key_cache_->size() != grid.nodes())
    throw std::invalid_argument(
        "ParticlePartitioner: key table does not cover the grid");
}

ParticlePartitioner::ParticlePartitioner(const sfc::Curve& curve,
                                         const mesh::GridDesc& grid,
                                         PartitionerConfig cfg)
    : ParticlePartitioner(
          curve, grid,
          std::make_shared<const sfc::IndexCache>(curve, grid.nx, grid.ny),
          std::move(cfg)) {}

void ParticlePartitioner::assign_keys(sim::Comm& comm,
                                      ParticleArray& p) const {
  core::assign_keys(*key_cache_, grid_, p);
  comm.charge_ops(p.size() * 4);  // cell lookup + curve evaluation
}

void ParticlePartitioner::charge_work(sim::Comm& comm,
                                      const SortWork& w) const {
  // One op per comparison and two per particle move.
  const double ops = static_cast<double>(w.comparisons) +
                     static_cast<double>(w.moves) * 2.0;
  comm.charge(ops * comm.cost().delta);
}

int ParticlePartitioner::owner_of(std::uint64_t key) const {
  // First rank whose inclusive upper bound admits the key; the last rank
  // absorbs anything above all bounds.
  const auto it =
      std::lower_bound(global_bounds_.begin(), global_bounds_.end(), key);
  if (it == global_bounds_.end()) return static_cast<int>(global_bounds_.size()) - 1;
  return static_cast<int>(it - global_bounds_.begin());
}

int ParticlePartitioner::dest_rank(std::uint64_t key, SortWork& w) const {
  w.comparisons += 1 + static_cast<std::uint64_t>(
                           global_bounds_.empty()
                               ? 0
                               : 64 - __builtin_clzll(global_bounds_.size()));
  return owner_of(key);
}

void ParticlePartitioner::refresh_state(sim::Comm& comm,
                                        const ParticleArray& p) {
  const int nranks = comm.size();
  // Upper key of my (sorted) range; empty ranks use 0 and are patched below
  // so bounds stay non-decreasing and identical on every rank.
  const std::uint64_t my_upper = p.empty() ? 0 : p.key[p.size() - 1];
  const auto uppers =
      comm.allgatherv_shared(std::vector<std::uint64_t>{my_upper});
  const auto counts =
      comm.allgatherv_shared(std::vector<std::uint64_t>{p.size()});

  global_bounds_.assign(static_cast<std::size_t>(nranks), 0);
  std::uint64_t prev = 0;
  for (int r = 0; r < nranks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    global_bounds_[i] = counts->values()[i] == 0 ? prev : uppers->values()[i];
    prev = global_bounds_[i];
  }

  refresh_local_buckets(p);
}

void ParticlePartitioner::refresh_local_buckets(const ParticleArray& p) {
  // Interior bucket boundaries of the local array: bucket b holds local
  // positions [b*span, (b+1)*span); boundary key b (b = 1..L-1) is the key
  // at position b*span.
  const int L = cfg_.buckets_per_rank;
  local_bounds_.clear();
  if (!p.empty()) {
    for (int b = 1; b < L; ++b) {
      const auto pos = static_cast<std::size_t>(
          static_cast<std::uint64_t>(b) * p.size() /
          static_cast<std::uint64_t>(L));
      local_bounds_.push_back(p.key[pos]);
    }
  }
  have_state_ = true;
}

RedistReport ParticlePartitioner::distribute(sim::Comm& comm,
                                             ParticleArray& p) {
  RedistReport rep;
  rep.incremental = false;
  const double t_begin = comm.clock();
  const int nranks = comm.size();

  // 1. Local sort by key.
  rep.work += sort_by_key(p);

  // Weighted balancers replace steps 2-3 (sampling + splitter derivation)
  // with the collective cell-weight walk, and skip step 6: cell-aligned
  // bounds are the point of the policy, and the order-maintaining balance
  // would shift them back onto arbitrary particle boundaries. The computed
  // bounds are kept (refresh_state would overwrite them with data-derived
  // ones); only the local bucket table is refreshed.
  if (!balancer_->lagrangian()) {
    global_bounds_ = balancer_->compute_bounds(comm, p, *key_cache_, rep.work);
    // The local array is key-sorted and the bounds are non-decreasing, so
    // destinations appear in ascending order: the send table is a list of
    // (dest, run) pairs — O(touched destinations), not O(p).
    std::vector<std::pair<int, std::vector<ParticleRec>>> send;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const int d = dest_rank(p.key[i], rep.work);
      if (send.empty() || send.back().first != d) send.emplace_back(d, std::vector<ParticleRec>{});
      send.back().second.push_back(p.rec(i));
      ++rep.work.moves;
      if (d != comm.rank()) ++rep.sent_particles;
    }
    auto recv = comm.all_to_many(std::move(send));
    std::vector<std::vector<ParticleRec>> runs;
    runs.reserve(recv.size());
    for (auto& [src, buf] : recv) runs.push_back(std::move(buf));
    rep.work += merge_runs(runs, p);
    charge_work(comm, rep.work);
    refresh_local_buckets(p);
    rep.seconds = comm.clock() - t_begin;
    return rep;
  }

  // 2-3. Regular sampling of local keys; gather all samples and derive
  // p-1 splitters at regular positions. Every rank of the allgatherv holds
  // the same gathered object, and the first rank to ask sorts its samples
  // for all (DESIGN.md §19). This rank's reference is dropped before
  // routing: a rank's fiber can wait in the exchange below while every
  // other rank runs this step, and the last one to leave frees the set.
  {
    const int s = cfg_.samples_per_rank;
    std::vector<std::uint64_t> samples;
    samples.reserve(static_cast<std::size_t>(s));
    if (!p.empty()) {
      for (int i = 1; i <= s; ++i) {
        const auto pos = static_cast<std::size_t>(
            static_cast<std::uint64_t>(i) * p.size() /
            static_cast<std::uint64_t>(s + 1));
        samples.push_back(p.key[std::min(pos, p.size() - 1)]);
      }
    }
    const auto gathered = comm.allgatherv_shared(samples);
    // The model charges each rank a comparison sort (~n log n for the tiny
    // sample set); the host sorts the multiset once, by radix (DESIGN.md
    // §17).
    const std::uint64_t before = gathered->values().size();
    rep.work.comparisons += before > 1 ? before * 10 : 0;
    const auto& all_samples = gathered->derive<std::vector<std::uint64_t>>([&] {
      std::vector<std::uint64_t> sorted = gathered->values();
      radix_sort_keys(sorted);
      sample_sorts.fetch_add(1, std::memory_order_relaxed);
      return sorted;
    });

    // Splitters become inclusive upper bounds: rank r takes keys in
    // (split[r-1], split[r]], last rank unbounded.
    global_bounds_.assign(static_cast<std::size_t>(nranks), kMaxKey);
    if (!all_samples.empty()) {
      for (int r = 0; r + 1 < nranks; ++r) {
        const auto pos = static_cast<std::size_t>(
            static_cast<std::uint64_t>(r + 1) * all_samples.size() /
            static_cast<std::uint64_t>(nranks));
        global_bounds_[static_cast<std::size_t>(r)] =
            all_samples[std::min(pos, all_samples.size() - 1)];
      }
    }
  }

  // 4. Route particles; the local array is sorted, so each destination
  // receives a contiguous sorted run and destinations appear in ascending
  // order — the send table is sparse in touched destinations.
  std::vector<std::pair<int, std::vector<ParticleRec>>> send;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const int d = dest_rank(p.key[i], rep.work);
    if (send.empty() || send.back().first != d)
      send.emplace_back(d, std::vector<ParticleRec>{});
    send.back().second.push_back(p.rec(i));
    ++rep.work.moves;
    if (d != comm.rank()) ++rep.sent_particles;
  }
  auto recv = comm.all_to_many(std::move(send));

  // 5. Merge the per-source sorted runs (ascending source order; empty
  // sources simply have no run, which leaves the merge unchanged).
  std::vector<std::vector<ParticleRec>> runs;
  runs.reserve(recv.size());
  for (auto& [src, buf] : recv) runs.push_back(std::move(buf));
  rep.work += merge_runs(runs, p);

  // 6. Exact balance, preserving order.
  const auto bal = order_maintaining_balance(comm, p);
  rep.sent_particles += bal.sent;
  rep.work.moves += bal.sent + bal.received;

  charge_work(comm, rep.work);
  refresh_state(comm, p);
  rep.seconds = comm.clock() - t_begin;
  return rep;
}

RedistReport ParticlePartitioner::redistribute(sim::Comm& comm,
                                               ParticleArray& p) {
  if (!have_state_) return distribute(comm, p);

  RedistReport rep;
  rep.incremental = true;
  const double t_begin = comm.clock();
  const int nranks = comm.size();
  const int L = cfg_.buckets_per_rank;

  const bool weighted = !balancer_->lagrangian();
  if (weighted) {
    // Weighted policies recompute the cell-aligned bounds from the current
    // particle profile before classifying: the profile drifted since the
    // last redistribution, and the bounds are a pure function of it.
    global_bounds_ = balancer_->compute_bounds(comm, p, *key_cache_, rep.work);
  } else {
    // Fig 12 line 1: refresh the global processor bounds from the previous
    // sorted state (they are already cached; the allgather keeps the
    // communication pattern of the paper's algorithm).
    (void)comm.allgatherv_shared(std::vector<std::uint64_t>{p.size()});
  }

  const std::uint64_t my_lower =
      comm.rank() == 0
          ? 0
          : global_bounds_[static_cast<std::size_t>(comm.rank() - 1)];
  const std::uint64_t my_upper =
      comm.rank() == nranks - 1
          ? kMaxKey
          : global_bounds_[static_cast<std::size_t>(comm.rank())];

  // Adaptive pre-scan (DESIGN.md §10): if every local particle still
  // belongs to this rank and the array is still key-sorted, the whole
  // classify/sort/merge pipeline is a no-op — skip it. The scan stops at
  // the first violation, so a genuinely perturbed array pays only a short
  // prefix. Mirrors sort_records' adaptive sortedness check.
  const std::size_t n = p.size();
  bool settled = true;
  {
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = p.key[i];
      rep.work.comparisons += 3;
      if (key < prev || key > my_upper ||
          (comm.rank() != 0 && key <= my_lower)) {
        settled = false;
        break;
      }
      prev = key;
    }
  }

  // Classify every particle: same positional bucket (cheap membership
  // test), another local bucket (binary search in local bounds), or
  // off-processor (binary search in global bounds). Bucket scratch is a
  // member so steady-state iterations reuse its capacity.
  bucket_scratch_.resize(static_cast<std::size_t>(L));
  for (auto& b : bucket_scratch_) b.clear();
  // Off-processor particles grouped by destination. The drifted array is
  // not key-sorted, so destinations arrive in arbitrary order: accumulate
  // into a sparse per-destination map (O(log k) per particle, k = touched
  // destinations — the handful of curve neighbors, not the world size).
  util::SparseRankMap<std::vector<ParticleRec>> send;

  auto bucket_of = [&](std::uint64_t key, SortWork& w) -> int {
    const auto it =
        std::upper_bound(local_bounds_.begin(), local_bounds_.end(), key);
    w.comparisons += 1 + (local_bounds_.empty() ? 0u : 5u);
    return static_cast<int>(it - local_bounds_.begin());
  };

  if (!settled) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = p.key[i];
      // Rank r owns keys in (bounds[r-1], bounds[r]]; rank 0 also owns key 0.
      rep.work.comparisons += 2;
      const bool local =
          key <= my_upper && (comm.rank() == 0 || key > my_lower);
      if (local) {
        // Positional bucket check first (paper's "same bucket as previous").
        const auto pos_bucket = static_cast<int>(
            n == 0 ? 0
                   : static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(L) /
                         static_cast<std::uint64_t>(n));
        const std::uint64_t b_lo =
            pos_bucket == 0 ? 0 : local_bounds_[static_cast<std::size_t>(pos_bucket - 1)];
        const std::uint64_t b_hi =
            pos_bucket >= static_cast<int>(local_bounds_.size())
                ? kMaxKey
                : local_bounds_[static_cast<std::size_t>(pos_bucket)];
        rep.work.comparisons += 2;
        int b;
        if (key >= b_lo && key < b_hi) {
          b = pos_bucket;  // category 1: same bucket
        } else {
          b = bucket_of(key, rep.work);  // category 2: another local bucket
        }
        bucket_scratch_[static_cast<std::size_t>(b)].push_back(p.rec(i));
        ++rep.work.moves;
      } else {
        // Category 3: off-processor.
        const int d = dest_rank(key, rep.work);
        send.ref(d).push_back(p.rec(i));
        ++rep.work.moves;
        ++rep.sent_particles;
      }
    }
  }

  // Fig 12 line 20: all-to-many exchange of off-processor particles.
  // Always executed (possibly with empty sends) so every rank runs the
  // same collective sequence regardless of its local settled/perturbed
  // state.
  std::vector<std::pair<int, std::vector<ParticleRec>>> send_pairs;
  send_pairs.reserve(send.size());
  for (auto& e : send) send_pairs.emplace_back(e.rank, std::move(e.value));
  auto recv = comm.all_to_many(std::move(send_pairs));

  // Lines 21-24: sort the received list and each bucket, then merge.
  // Buckets cover disjoint ascending key ranges, so sorted buckets
  // concatenate into one sorted run for free; merge_bucket_runs does the
  // final 2-way merge straight out of the buckets (no intermediate
  // concatenated copy, no heap — see DESIGN.md §10). Received pairs
  // concatenate in ascending source order, matching the dense loop.
  recv_scratch_.clear();
  for (auto& [src, r] : recv)
    recv_scratch_.insert(recv_scratch_.end(), r.begin(), r.end());
  rep.work += sort_records(recv_scratch_);

  if (settled) {
    if (!recv_scratch_.empty()) {
      // Local particles are untouched and sorted; merge arrivals into them.
      std::vector<std::vector<ParticleRec>> kept(1);
      kept[0].reserve(n);
      for (std::size_t i = 0; i < n; ++i) kept[0].push_back(p.rec(i));
      rep.work.moves += n;
      rep.work += merge_bucket_runs(kept, recv_scratch_, p);
    }
    // else: true no-op — p is left byte-identical.
  } else {
    for (auto& b : bucket_scratch_) rep.work += sort_records(b);
    rep.work += merge_bucket_runs(bucket_scratch_, recv_scratch_, p);
  }

  if (weighted) {
    // Cell-aligned bounds are authoritative: no exact balance pass, and the
    // computed bounds survive instead of refresh_state's data-derived ones.
    charge_work(comm, rep.work);
    refresh_local_buckets(p);
    rep.seconds = comm.clock() - t_begin;
    return rep;
  }

  // Order-maintaining load balance, then refresh bucket state.
  const auto bal = order_maintaining_balance(comm, p);
  rep.sent_particles += bal.sent;
  rep.work.moves += bal.sent + bal.received;

  charge_work(comm, rep.work);
  refresh_state(comm, p);
  rep.seconds = comm.clock() - t_begin;
  return rep;
}

std::size_t ParticlePartitioner::scratch_bytes() const {
  std::size_t bytes =
      bucket_scratch_.capacity() * sizeof(std::vector<particles::ParticleRec>);
  for (const auto& b : bucket_scratch_)
    bytes += b.capacity() * sizeof(particles::ParticleRec);
  bytes += recv_scratch_.capacity() * sizeof(particles::ParticleRec);
  bytes += local_bounds_.capacity() * sizeof(std::uint64_t);
  bytes += global_bounds_.capacity() * sizeof(std::uint64_t);
  return bytes;
}

}  // namespace picpar::core
