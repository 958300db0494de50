#include "trace/metrics.hpp"

#include <bit>
#include <charconv>

namespace picpar::trace {

namespace detail {

void append_num(std::string& out, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_num(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_num(std::string& out, std::int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace detail

using detail::append_num;

void Histogram::observe(std::uint64_t value) {
  if (buckets.empty()) buckets.assign(kHistogramBuckets, 0);
  if (count == 0) {
    min = value;
    max = value;
  } else {
    if (value < min) min = value;
    if (value > max) max = value;
  }
  count += 1;
  sum += static_cast<double>(value);
  // Bucket k holds (2^(k-1), 2^k] so the "le_2^k" label is exact; bucket 0
  // holds {0, 1}. bit_width(value) would misplace every exact power of two
  // by one bucket (2^k has bit width k+1), hence the value-1 form.
  const std::size_t idx =
      value <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(value - 1));
  buckets[idx] += 1;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.counters.assign(counters_.begin(), counters_.end());
  s.gauges.assign(gauges_.begin(), gauges_.end());
  s.histograms.assign(histograms_.begin(), histograms_.end());
  return s;
}

namespace {

void append_quoted(std::string& out, const std::string& name) {
  out += '"';
  out += name;  // metric names are [A-Za-z0-9._/^-]; nothing to escape
  out += '"';
}

void append_histogram_json(std::string& out, const Histogram& h) {
  out += "{\"count\":";
  append_num(out, h.count);
  out += ",\"sum\":";
  append_num(out, h.sum);
  out += ",\"min\":";
  append_num(out, h.min);
  out += ",\"max\":";
  append_num(out, h.max);
  out += ",\"buckets\":{";
  bool first = true;
  for (std::size_t k = 0; k < h.buckets.size(); ++k) {
    if (h.buckets[k] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "\"le_2^";
    append_num(out, static_cast<std::uint64_t>(k));
    out += "\":";
    append_num(out, h.buckets[k]);
  }
  out += "}}";
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_quoted(out, counters[i].first);
    out += ": ";
    append_num(out, counters[i].second);
  }
  out += "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_quoted(out, gauges[i].first);
    out += ": ";
    append_num(out, gauges[i].second);
  }
  out += "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_quoted(out, histograms[i].first);
    out += ": ";
    append_histogram_json(out, histograms[i].second);
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace picpar::trace
