// Deterministic fault injection for the simulated machine.
//
// A FaultModel owned by Machine perturbs a run the way a real cluster
// would: per-rank compute slowdowns (transient hiccups and persistent
// stragglers), message latency jitter (which reorders arrivals), message
// duplication, and payload bit-flips on the wire. Every decision is drawn
// from a per-rank seeded RNG stream, so a faulty run is exactly as
// reproducible as a clean one: same config + same seed => identical
// RunResult, fault for fault.
//
// Layering: the Machine consults the model inside do_send/do_recv/charge.
// Wire corruption is always *detected* (FNV-1a checksum over the payload,
// carried in the message envelope) and recovered by the transport's
// retransmit protocol — see machine.cpp. Faults the transport cannot see
// (host memory corruption) are exposed through should_memory_fault() for
// drivers (run_pic) to inject into their own state, where invariant
// validation — not checksums — is the detection layer.
//
// A default-constructed model is disabled and adds zero virtual-time
// overhead: the Machine's fast paths skip every hook.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace picpar::sim {

/// One scheduled fail-stop crash: `rank` stops executing at the first
/// communication or compute boundary at/after `vtime` on its own clock.
struct CrashPoint {
  int rank = -1;
  double vtime = 0.0;
};

struct FaultConfig {
  /// Master seed; per-rank streams are split deterministically from it.
  std::uint64_t seed = 0x5EEDFA17ULL;

  // ---- compute faults ----
  /// Probability that any single compute charge is slowed transiently.
  double transient_slow_prob = 0.0;
  /// Multiplier applied to a transiently slowed charge.
  double transient_slow_factor = 4.0;
  /// Ranks that run persistently slow (e.g. a failing node's neighbors).
  std::vector<int> straggler_ranks;
  /// Multiplier applied to every compute charge on a straggler rank.
  double straggler_factor = 1.0;

  // ---- message faults (recovered by the transport) ----
  /// Probability a sent message picks up extra latency.
  double latency_jitter_prob = 0.0;
  /// Maximum extra latency in seconds, uniform in [0, max).
  double latency_jitter_max_seconds = 0.0;
  /// Probability a delivery attempt arrives with a flipped payload bit.
  /// Detected by checksum; the transport retransmits (each retry draws
  /// corruption again, so the recovery itself degrades under high rates).
  double corrupt_prob = 0.0;
  /// Probability a sent message is delivered twice (same sequence number).
  double duplicate_prob = 0.0;
  /// Retransmit attempts before the transport gives up (TransportError).
  int max_retries = 8;

  // ---- host faults (injected by drivers, not the Machine) ----
  /// Per-rank, per-iteration probability that a driver flips one bit of
  /// its own state (see run_pic); caught by invariant validation.
  double memory_fault_prob = 0.0;

  // ---- fail-stop crashes (detected via virtual-time leases; machine.hpp) ----
  /// Scheduled crashes: each entry fail-stops one rank at its virtual time.
  std::vector<CrashPoint> crash_schedule;
  /// Probabilistic crashes: each rank draws once at reset; with this
  /// probability it crashes at a uniform time in [0, crash_vtime_max).
  double crash_prob = 0.0;
  double crash_vtime_max = 0.0;
  /// Detection lease: survivors declare a peer failed no earlier than its
  /// crash time plus this many virtual seconds (heartbeat-timeout analogue).
  double crash_lease_seconds = 1e-3;

  bool any_compute_faults() const {
    return transient_slow_prob > 0.0 ||
           (straggler_factor != 1.0 && !straggler_ranks.empty());
  }
  bool any_message_faults() const {
    return latency_jitter_prob > 0.0 || corrupt_prob > 0.0 ||
           duplicate_prob > 0.0;
  }
  bool any_crash_faults() const {
    return !crash_schedule.empty() ||
           (crash_prob > 0.0 && crash_vtime_max > 0.0);
  }
  bool any() const {
    return any_compute_faults() || any_message_faults() ||
           memory_fault_prob > 0.0 || any_crash_faults();
  }
};

/// Per-rank tallies of injected faults (what the model *did*; the
/// transport's LinkStats record what the receiver *saw*).
struct FaultCounters {
  std::uint64_t transient_slowdowns = 0;
  std::uint64_t jittered_messages = 0;
  std::uint64_t corrupted_deliveries = 0;
  std::uint64_t duplicated_messages = 0;
  std::uint64_t memory_faults = 0;
  std::uint64_t crashes = 0;

  FaultCounters& operator+=(const FaultCounters& rhs);
  std::uint64_t total() const {
    return transient_slowdowns + jittered_messages + corrupted_deliveries +
           duplicated_messages + memory_faults + crashes;
  }
  /// One-line "kind=count ..." summary of the non-zero tallies ("clean"
  /// when nothing fired) — for logs and test diagnostics.
  std::string summary() const;
};

class FaultModel {
public:
  /// Disabled model: every hook is a constant-false no-op.
  FaultModel() = default;
  FaultModel(FaultConfig cfg, int nranks);

  bool enabled() const { return enabled_; }
  bool message_faults() const { return message_faults_; }
  bool compute_faults() const { return compute_faults_; }
  bool crash_faults() const { return crash_faults_; }
  const FaultConfig& config() const { return cfg_; }

  /// Re-seed every stream and zero the counters (Machine::run calls this so
  /// repeated runs on one Machine stay reproducible).
  void reset();

  // ---- hooks (each draws from the rank's stream and updates counters) ----
  double compute_factor(int rank);
  double latency_jitter(int rank);
  bool should_corrupt_delivery(int rank);
  bool should_duplicate(int rank);
  bool should_memory_fault(int rank);

  /// Flip one uniformly chosen bit of `bytes` (no-op on empty payloads).
  void flip_random_bit(int rank, std::byte* bytes, std::size_t n);
  /// Uniform draw in [0, n) from the rank's stream (for driver-side faults).
  std::uint64_t draw_below(int rank, std::uint64_t n);

  /// Pre-drawn fail-stop time for the rank's own clock; +infinity when the
  /// rank never crashes. Fixed at reset() so every execution order sees the
  /// same crash points.
  double crash_time(int rank) const;
  /// Book the crash of `rank` (the Machine calls this once when it fires).
  void count_crash(int rank);

  const FaultCounters& counters(int rank) const;
  FaultCounters total_counters() const;

private:
  struct Stream {
    Rng rng{0};
    FaultCounters counters;
    bool straggler = false;
    /// This rank's fail-stop time (+inf = never crashes).
    double crash_at = 0.0;
  };

  Stream& stream(int rank);

  FaultConfig cfg_{};
  int nranks_ = 0;
  bool enabled_ = false;
  bool message_faults_ = false;
  bool compute_faults_ = false;
  bool crash_faults_ = false;
  std::vector<Stream> streams_;
};

/// FNV-1a 64-bit hash — the transport's payload checksum.
std::uint64_t fnv1a(const std::byte* data, std::size_t n);

}  // namespace picpar::sim
