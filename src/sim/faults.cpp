#include "sim/faults.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace picpar::sim {

std::string FaultCounters::summary() const {
  std::string out;
  const auto add = [&out](const char* name, std::uint64_t v) {
    if (v == 0) return;
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(v);
  };
  add("transient_slowdowns", transient_slowdowns);
  add("jittered", jittered_messages);
  add("corrupted", corrupted_deliveries);
  add("duplicated", duplicated_messages);
  add("memory", memory_faults);
  add("crashes", crashes);
  return out.empty() ? "clean" : out;
}

FaultCounters& FaultCounters::operator+=(const FaultCounters& rhs) {
  transient_slowdowns += rhs.transient_slowdowns;
  jittered_messages += rhs.jittered_messages;
  corrupted_deliveries += rhs.corrupted_deliveries;
  duplicated_messages += rhs.duplicated_messages;
  memory_faults += rhs.memory_faults;
  crashes += rhs.crashes;
  return *this;
}

FaultModel::FaultModel(FaultConfig cfg, int nranks)
    : cfg_(std::move(cfg)), nranks_(nranks) {
  if (nranks <= 0) throw std::invalid_argument("FaultModel: nranks must be > 0");
  if (cfg_.max_retries < 0)
    throw std::invalid_argument("FaultModel: max_retries must be >= 0");
  enabled_ = cfg_.any();
  message_faults_ = cfg_.any_message_faults();
  compute_faults_ = cfg_.any_compute_faults();
  crash_faults_ = cfg_.any_crash_faults();
  for (const int r : cfg_.straggler_ranks)
    if (r < 0 || r >= nranks)
      throw std::invalid_argument("FaultModel: straggler rank out of range");
  // Probabilities are compared with uniform draws in [0, 1). Jitter and the
  // factors stretch arrivals and charges: a negative one would move a clock
  // backwards, which the engine's lower-bound commit rule (jitter >= 0,
  // monotone clocks) assumes never happens. NaN fails every test; a NaN
  // crash time would never fire.
  const auto require = [](bool ok, const char* field, const char* range) {
    if (!ok)
      throw std::invalid_argument(std::string("FaultModel: ") + field +
                                  " must be " + range);
  };
  const auto nonneg = [&](double v, const char* field) {
    require(std::isfinite(v) && v >= 0.0, field, "finite and >= 0");
  };
  for (const auto& cp : cfg_.crash_schedule) {
    if (cp.rank < 0 || cp.rank >= nranks)
      throw std::invalid_argument("FaultModel: crash rank out of range");
    nonneg(cp.vtime, "crash_schedule vtime");
  }
  nonneg(cfg_.crash_lease_seconds, "crash_lease_seconds");
  const auto prob = [&](double v, const char* field) {
    require(v >= 0.0 && v <= 1.0, field, "in [0, 1]");
  };
  prob(cfg_.transient_slow_prob, "transient_slow_prob");
  prob(cfg_.latency_jitter_prob, "latency_jitter_prob");
  prob(cfg_.corrupt_prob, "corrupt_prob");
  prob(cfg_.duplicate_prob, "duplicate_prob");
  prob(cfg_.memory_fault_prob, "memory_fault_prob");
  prob(cfg_.crash_prob, "crash_prob");
  nonneg(cfg_.latency_jitter_max_seconds, "latency_jitter_max_seconds");
  nonneg(cfg_.crash_vtime_max, "crash_vtime_max");
  const auto positive = [&](double v, const char* field) {
    require(std::isfinite(v) && v > 0.0, field, "finite and > 0");
  };
  positive(cfg_.transient_slow_factor, "transient_slow_factor");
  positive(cfg_.straggler_factor, "straggler_factor");
  streams_.resize(static_cast<std::size_t>(nranks));
  reset();
}

void FaultModel::reset() {
  // Split the master seed into independent per-rank streams so a rank's
  // draw sequence depends only on its own event order, not on interleaving.
  SplitMix64 split(cfg_.seed);
  for (int r = 0; r < nranks_; ++r) {
    auto& s = streams_[static_cast<std::size_t>(r)];
    s.rng.reseed(split.next());
    s.counters = FaultCounters{};
    s.straggler = false;
    s.crash_at = std::numeric_limits<double>::infinity();
  }
  for (const int r : cfg_.straggler_ranks)
    streams_[static_cast<std::size_t>(r)].straggler = true;
  // Fail-stop times are fixed up front — a crash point is a property of the
  // run, not of the execution order that reaches it.
  if (cfg_.crash_prob > 0.0 && cfg_.crash_vtime_max > 0.0) {
    for (int r = 0; r < nranks_; ++r) {
      auto& s = streams_[static_cast<std::size_t>(r)];
      if (s.rng.uniform() < cfg_.crash_prob)
        s.crash_at = s.rng.uniform(0.0, cfg_.crash_vtime_max);
    }
  }
  for (const auto& cp : cfg_.crash_schedule) {
    auto& s = streams_[static_cast<std::size_t>(cp.rank)];
    if (cp.vtime < s.crash_at) s.crash_at = cp.vtime;
  }
}

double FaultModel::crash_time(int rank) const {
  if (!crash_faults_) return std::numeric_limits<double>::infinity();
  return streams_[static_cast<std::size_t>(rank)].crash_at;
}

void FaultModel::count_crash(int rank) { ++stream(rank).counters.crashes; }

FaultModel::Stream& FaultModel::stream(int rank) {
  return streams_[static_cast<std::size_t>(rank)];
}

double FaultModel::compute_factor(int rank) {
  auto& s = stream(rank);
  double factor = 1.0;
  if (s.straggler) factor *= cfg_.straggler_factor;
  if (cfg_.transient_slow_prob > 0.0 &&
      s.rng.uniform() < cfg_.transient_slow_prob) {
    factor *= cfg_.transient_slow_factor;
    ++s.counters.transient_slowdowns;
  }
  return factor;
}

double FaultModel::latency_jitter(int rank) {
  if (cfg_.latency_jitter_prob <= 0.0) return 0.0;
  auto& s = stream(rank);
  if (s.rng.uniform() >= cfg_.latency_jitter_prob) return 0.0;
  ++s.counters.jittered_messages;
  return s.rng.uniform(0.0, cfg_.latency_jitter_max_seconds);
}

bool FaultModel::should_corrupt_delivery(int rank) {
  if (cfg_.corrupt_prob <= 0.0) return false;
  auto& s = stream(rank);
  if (s.rng.uniform() >= cfg_.corrupt_prob) return false;
  ++s.counters.corrupted_deliveries;
  return true;
}

bool FaultModel::should_duplicate(int rank) {
  if (cfg_.duplicate_prob <= 0.0) return false;
  auto& s = stream(rank);
  if (s.rng.uniform() >= cfg_.duplicate_prob) return false;
  ++s.counters.duplicated_messages;
  return true;
}

bool FaultModel::should_memory_fault(int rank) {
  if (cfg_.memory_fault_prob <= 0.0) return false;
  auto& s = stream(rank);
  if (s.rng.uniform() >= cfg_.memory_fault_prob) return false;
  ++s.counters.memory_faults;
  return true;
}

void FaultModel::flip_random_bit(int rank, std::byte* bytes, std::size_t n) {
  if (n == 0) return;
  auto& s = stream(rank);
  const std::uint64_t bit = s.rng.below(static_cast<std::uint64_t>(n) * 8);
  bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

std::uint64_t FaultModel::draw_below(int rank, std::uint64_t n) {
  return stream(rank).rng.below(n);
}

const FaultCounters& FaultModel::counters(int rank) const {
  return streams_[static_cast<std::size_t>(rank)].counters;
}

FaultCounters FaultModel::total_counters() const {
  FaultCounters t;
  for (const auto& s : streams_) t += s.counters;
  return t;
}

std::uint64_t fnv1a(const std::byte* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace picpar::sim
