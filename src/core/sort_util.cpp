#include "core/sort_util.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>

namespace picpar::core {

using particles::ParticleArray;
using particles::ParticleRec;

void radix_sort_keys(std::vector<std::uint64_t>& keys) {
  std::uint64_t widest = 0;
  for (const std::uint64_t k : keys) widest |= k;
  std::vector<std::uint64_t> scratch(keys.size());
  for (int shift = 0; shift < 64 && (widest >> shift) != 0; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const std::uint64_t k : keys) ++start[((k >> shift) & 0xff) + 1];
    for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
    for (const std::uint64_t k : keys) scratch[start[(k >> shift) & 0xff]++] = k;
    keys.swap(scratch);
  }
}

SortWork sort_by_key(ParticleArray& p) {
  SortWork w;
  const std::size_t n = p.size();
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     ++w.comparisons;
                     return p.key[a] < p.key[b];
                   });
  p.apply_permutation(perm);
  w.moves += n;
  return w;
}

SortWork sort_records(std::vector<ParticleRec>& recs) {
  SortWork w;
  bool sorted = true;
  for (std::size_t i = 1; i < recs.size(); ++i) {
    ++w.comparisons;
    if (recs[i].key < recs[i - 1].key) {
      sorted = false;
      break;
    }
  }
  if (sorted) return w;
  std::stable_sort(recs.begin(), recs.end(),
                   [&](const ParticleRec& a, const ParticleRec& b) {
                     ++w.comparisons;
                     return a.key < b.key;
                   });
  w.moves += recs.size();
  return w;
}

SortWork merge_runs(std::vector<std::vector<ParticleRec>>& runs,
                    ParticleArray& p) {
  SortWork w;
  // k-way merge with a small heap over run heads.
  struct Head {
    std::uint64_t key;
    std::uint32_t run;
    std::uint32_t pos;
  };
  auto cmp = [&](const Head& a, const Head& b) {
    ++w.comparisons;
    if (a.key != b.key) return a.key > b.key;
    return a.run > b.run;  // stability across runs
  };
  std::priority_queue<Head, std::vector<Head>, decltype(cmp)> heap(cmp);

  std::size_t total = 0;
  for (std::uint32_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) heap.push({runs[r][0].key, r, 0});
  }

  p.clear();
  p.reserve(total);
  while (!heap.empty()) {
    const Head h = heap.top();
    heap.pop();
    p.push_back(runs[h.run][h.pos]);
    ++w.moves;
    const std::uint32_t next = h.pos + 1;
    if (next < runs[h.run].size())
      heap.push({runs[h.run][next].key, h.run, next});
  }
  return w;
}

SortWork merge_bucket_runs(const std::vector<std::vector<ParticleRec>>& buckets,
                           const std::vector<ParticleRec>& incoming,
                           ParticleArray& p) {
  SortWork w;
  std::size_t total = incoming.size();
  for (const auto& b : buckets) total += b.size();

  p.clear();
  p.reserve(total);

  // Cursor over the virtual concatenation of the buckets.
  std::size_t run = 0, pos = 0;
  const auto skip_empty = [&] {
    while (run < buckets.size() && pos >= buckets[run].size()) {
      ++run;
      pos = 0;
    }
  };
  skip_empty();

  std::size_t j = 0;  // cursor over incoming
  while (run < buckets.size() && j < incoming.size()) {
    ++w.comparisons;
    // Stability: the bucket side wins ties (it is run 0 of the old 2-run
    // heap merge).
    if (incoming[j].key < buckets[run][pos].key) {
      p.push_back(incoming[j++]);
    } else {
      p.push_back(buckets[run][pos++]);
      skip_empty();
    }
    ++w.moves;
  }
  while (run < buckets.size()) {
    for (; pos < buckets[run].size(); ++pos) {
      p.push_back(buckets[run][pos]);
      ++w.moves;
    }
    ++run;
    pos = 0;
  }
  for (; j < incoming.size(); ++j) {
    p.push_back(incoming[j]);
    ++w.moves;
  }
  return w;
}

}  // namespace picpar::core
