// Fixed-bin histograms, load-imbalance factors and exact percentiles for
// benches and diagnostics.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace picpar {

/// Fixed-bin histogram over [lo, hi); out-of-range samples land in the
/// boundary bins.
class Histogram {
public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// Render as a compact ASCII bar chart (one line per bin).
  std::string ascii(std::size_t width = 50) const;

private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Load-imbalance metrics over a per-rank quantity.
struct Imbalance {
  double max = 0.0;
  double mean = 0.0;

  /// max/mean; 1.0 means perfectly balanced. Returns 0 for an empty input.
  double factor() const { return mean > 0.0 ? max / mean : 0.0; }
};

Imbalance imbalance(const std::vector<double>& per_rank);
Imbalance imbalance_counts(const std::vector<std::size_t>& per_rank);

/// Exact percentile of a sample set (copies + sorts; for small sets).
double percentile(std::vector<double> samples, double p);

}  // namespace picpar
