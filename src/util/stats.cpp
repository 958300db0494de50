#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace picpar {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: need hi > lo");
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<long>(std::floor(t * static_cast<double>(counts_.size())));
  idx = std::clamp(idx, 0L, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = counts_[i] * width / peak;
    os << "[" << bin_lo(i) << ", " << bin_hi(i) << ") ";
    for (std::size_t j = 0; j < bar; ++j) os << '#';
    os << ' ' << counts_[i] << '\n';
  }
  return os.str();
}

Imbalance imbalance(const std::vector<double>& per_rank) {
  Imbalance r;
  if (per_rank.empty()) return r;
  double sum = 0.0;
  for (double v : per_rank) {
    r.max = std::max(r.max, v);
    sum += v;
  }
  r.mean = sum / static_cast<double>(per_rank.size());
  return r;
}

Imbalance imbalance_counts(const std::vector<std::size_t>& per_rank) {
  std::vector<double> d(per_rank.begin(), per_rank.end());
  return imbalance(d);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace picpar
