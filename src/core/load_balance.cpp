#include "core/load_balance.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace picpar::core {

using particles::ParticleArray;
using particles::ParticleRec;

std::uint64_t balanced_count(std::uint64_t total, int nranks, int rank) {
  const auto p = static_cast<std::uint64_t>(nranks);
  const auto r = static_cast<std::uint64_t>(rank);
  return (r + 1) * total / p - r * total / p;
}

BalanceReport order_maintaining_balance(sim::Comm& comm, ParticleArray& p) {
  const int nranks = comm.size();
  const int rank = comm.rank();

  // Each rank needs only its own start and the total: the prefix sums of
  // the gathered counts, computed once for every rank of the collective.
  const auto counts =
      comm.allgatherv_shared(std::vector<std::uint64_t>{p.size()});
  const auto& starts = counts->derive<std::vector<std::uint64_t>>([&] {
    const auto& c = counts->values();
    std::vector<std::uint64_t> s(c.size() + 1, 0);
    for (std::size_t r = 0; r < c.size(); ++r) s[r + 1] = s[r] + c[r];
    return s;
  });
  const std::uint64_t total = starts.back();
  const std::uint64_t my_start = starts[static_cast<std::size_t>(rank)];

  // Target ownership: rank r gets global positions [r*N/p, (r+1)*N/p).
  auto target_start = [&](int r) {
    return static_cast<std::uint64_t>(r) * total /
           static_cast<std::uint64_t>(nranks);
  };

  // Slice my contiguous run [my_start, my_start + n) across target owners.
  // Targets are consecutive ranks starting at the last one whose target
  // range begins at or before my_start, so the send table is a list of
  // (dest, run) pairs in ascending destination order.
  std::vector<std::pair<int, std::vector<ParticleRec>>> send;
  const std::uint64_t n = p.size();
  BalanceReport rep;
  if (n > 0) {
    // target_start is non-decreasing and target_start(0) == 0 <= my_start:
    // binary-search the first rank whose target range starts past my_start.
    int lo = 1, hi = nranks;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (target_start(mid) <= my_start)
        lo = mid + 1;
      else
        hi = mid;
    }
    int dest = lo - 1;
    std::uint64_t i = 0;
    while (i < n) {
      const std::uint64_t dest_end =
          (dest + 1 == nranks) ? total : target_start(dest + 1);
      const std::uint64_t run =
          std::min(n - i, dest_end - (my_start + i));
      if (run > 0) {
        std::vector<ParticleRec> buf;
        buf.reserve(static_cast<std::size_t>(run));
        for (std::uint64_t k = 0; k < run; ++k)
          buf.push_back(p.rec(static_cast<std::size_t>(i + k)));
        send.emplace_back(dest, std::move(buf));
        if (dest != rank) rep.sent += run;
      }
      i += run;
      ++dest;
    }
  }

  // Received runs arrive in ascending source order: their concatenation is
  // the global order.
  auto recv = comm.all_to_many(std::move(send));

  p.clear();
  std::size_t incoming = 0;
  for (const auto& [src, buf] : recv) incoming += buf.size();
  p.reserve(incoming);
  for (const auto& [src, buf] : recv) {
    for (const auto& r : buf) p.push_back(r);
    if (src != rank) rep.received += buf.size();
  }
  return rep;
}

}  // namespace picpar::core
