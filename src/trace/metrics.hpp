// Deterministic metrics: counters, gauges, and fixed-log2-bucket
// histograms.
//
// The registry is a plain map keyed by metric name; snapshots iterate it in
// sorted order and format numbers with std::to_chars (shortest round-trip),
// so two runs that observe the same values produce byte-identical JSON
// regardless of insertion order, locale, or host. Histograms use 65 fixed
// power-of-two buckets (bucket 0 holds values <= 1, bucket k holds
// (2^(k-1), 2^k] for k = 1..64), so the bucket layout never depends on the
// data and every bucket's "le_2^k" label is an exact inclusive bound.
//
// Not thread-safe: the tracer only touches its registry at run start and at
// the run-end quiescence point, where the machine guarantees a single
// caller.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace picpar::trace {

/// Number of log2 histogram buckets: values <= 1, then one bucket
/// (2^(k-1), 2^k] per k = 1..64.
inline constexpr std::size_t kHistogramBuckets = 65;

struct Histogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  ///< size kHistogramBuckets once used

  void observe(std::uint64_t value);
};

/// One immutable, sorted view of a registry, with a deterministic exporter.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram>> histograms;

  /// Pretty-printed JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{...}}; one metric per line, keys sorted. Histogram
  /// buckets appear as {"le_2^k": count} for non-empty buckets only.
  std::string to_json() const;
};

class MetricsRegistry {
public:
  /// Increment a counter (created at 0 on first use).
  void add(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  /// Set a gauge to an absolute value.
  void set(const std::string& name, double value) { gauges_[name] = value; }
  /// Record one sample into a log2-bucket histogram.
  void observe(const std::string& name, std::uint64_t value) {
    histograms_[name].observe(value);
  }

  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }
  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  MetricsSnapshot snapshot() const;

private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

namespace detail {
/// Append a number formatted with std::to_chars: shortest representation
/// that round-trips, identical on every host. Shared by every trace
/// exporter so all files obey one formatting rule.
void append_num(std::string& out, double v);
void append_num(std::string& out, std::uint64_t v);
void append_num(std::string& out, std::int64_t v);
}  // namespace detail

}  // namespace picpar::trace
