// Canonical PicParams serialization and content fingerprint — the identity
// the sweep result cache (src/sweep) keys on.
//
// Contract (asserted by tests/pic/test_fingerprint.cpp):
//   * every semantically meaningful field changes the bytes;
//   * the worker count (ExecParams, PICPAR_PARALLEL/PICPAR_WORKERS) does
//     not — runs are bit-identical at every worker count, so one cache
//     entry serves all;
//   * the bytes are host- and process-independent (std::to_chars shortest
//     form for doubles, fixed key order, no addresses), so a fingerprint
//     computed today matches one computed by another process next week.
//
// Environment overrides that do change run semantics are folded in exactly
// the way run_pic applies them: PICPAR_CRASH_* merge into the fault config
// (entries aimed past nranks dropped), PICPAR_ANALYZE forces the analyzer
// on, and PICPAR_TRACE/PICPAR_TRACE_METRICS force tracing on. Trace output
// paths name sinks, not semantics, so only the on/off state is serialized.
#include <string>

#include "analysis/audit.hpp"
#include "pic/config.hpp"
#include "pic/simulation.hpp"
#include "sim/faults.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"

namespace picpar::pic {

namespace {

/// Bump when the meaning of existing fields changes (or a physics change
/// invalidates cached results) without the serialized keys changing.
/// v2: scenario subsystem (scenario name and partitioner.balancer joined
/// the serialization; runs they affect must not hit v1 cache entries).
/// v3: the scenario is the only workload path (the dist key is gone).
/// v4: seven keys of settings that changed no result or took one value
/// are gone (the reorder fault, two cost knobs of the sort, two of
/// validation, the analyzer's finding cap and trace wall-clock export).
/// v5: trace.flows is gone: every traced run records its message flows.
constexpr int kCanonicalVersion = 5;

void kv(std::string& out, const char* key, const std::string& v) {
  out += key;
  out += '=';
  out += v;
  out += '\n';
}

void kv(std::string& out, const char* key, const char* v) {
  kv(out, key, std::string(v));
}

void kv(std::string& out, const char* key, double v) {
  out += key;
  out += '=';
  trace::detail::append_num(out, v);
  out += '\n';
}

void kv(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += '=';
  trace::detail::append_num(out, v);
  out += '\n';
}

void kv(std::string& out, const char* key, int v) {
  kv(out, key, std::to_string(v));
}

void kv(std::string& out, const char* key, bool v) {
  kv(out, key, v ? "1" : "0");
}

const char* grid_decomp_name(GridDecomp d) {
  return d == GridDecomp::kBlock ? "block" : "curve";
}

const char* solver_name(FieldSolveKind s) {
  switch (s) {
    case FieldSolveKind::kMaxwell: return "maxwell";
    case FieldSolveKind::kPoisson: return "poisson";
    case FieldSolveKind::kNone: return "none";
  }
  return "?";
}

}  // namespace

std::string PicParams::canonical() const {
  std::string out;
  out.reserve(1536);
  kv(out, "picpar-params", std::uint64_t{kCanonicalVersion});

  // ---- problem shape ----
  kv(out, "grid.nx", std::uint64_t{grid.nx});
  kv(out, "grid.ny", std::uint64_t{grid.ny});
  kv(out, "grid.lx", grid.lx);
  kv(out, "grid.ly", grid.ly);
  kv(out, "nranks", nranks);
  kv(out, "scenario", scenario);
  kv(out, "init.total", init.total);
  kv(out, "init.vth", init.vth);
  kv(out, "init.drift_ux", init.drift_ux);
  kv(out, "init.drift_uy", init.drift_uy);
  kv(out, "init.sigma_fraction", init.sigma_fraction);
  kv(out, "init.omega_p", init.omega_p);
  kv(out, "init.seed", init.seed);

  // ---- decomposition and algorithm knobs ----
  kv(out, "curve", sfc::curve_kind_name(curve));
  kv(out, "grid_decomp", grid_decomp_name(grid_decomp));
  kv(out, "solver", solver_name(solver));
  kv(out, "iterations", iterations);
  kv(out, "dt", dt);
  kv(out, "policy", policy);
  kv(out, "dedup", core::dedup_policy_name(dedup));
  kv(out, "partitioner.buckets_per_rank", partitioner.buckets_per_rank);
  kv(out, "partitioner.samples_per_rank", partitioner.samples_per_rank);
  kv(out, "partitioner.balancer", partitioner.balancer);

  // ---- cost model ----
  kv(out, "costs.scatter_per_vertex", costs.scatter_per_vertex);
  kv(out, "costs.field_per_node", costs.field_per_node);
  kv(out, "costs.gather_per_vertex", costs.gather_per_vertex);
  kv(out, "costs.push_per_particle", costs.push_per_particle);
  kv(out, "machine.tau", machine.tau);
  kv(out, "machine.mu", machine.mu);
  kv(out, "machine.delta", machine.delta);
  kv(out, "machine.recv_copy_mu", machine.recv_copy_mu);

  // ---- faults (effective config: PICPAR_CRASH_* folded in, schedule
  // entries aimed past this run's rank count dropped, as run_pic does) ----
  sim::FaultConfig f = faults;
  apply_crash_env(f);
  kv(out, "faults.seed", f.seed);
  kv(out, "faults.transient_slow_prob", f.transient_slow_prob);
  kv(out, "faults.transient_slow_factor", f.transient_slow_factor);
  {
    std::string s;
    for (const int r : f.straggler_ranks) {
      if (!s.empty()) s += ',';
      s += std::to_string(r);
    }
    kv(out, "faults.straggler_ranks", s);
  }
  kv(out, "faults.straggler_factor", f.straggler_factor);
  kv(out, "faults.latency_jitter_prob", f.latency_jitter_prob);
  kv(out, "faults.latency_jitter_max_seconds", f.latency_jitter_max_seconds);
  kv(out, "faults.corrupt_prob", f.corrupt_prob);
  kv(out, "faults.duplicate_prob", f.duplicate_prob);
  kv(out, "faults.max_retries", f.max_retries);
  kv(out, "faults.memory_fault_prob", f.memory_fault_prob);
  {
    std::string s;
    for (const auto& cp : f.crash_schedule) {
      if (cp.rank >= nranks) continue;
      if (!s.empty()) s += ',';
      s += std::to_string(cp.rank);
      s += '@';
      trace::detail::append_num(s, cp.vtime);
    }
    kv(out, "faults.crash_schedule", s);
  }
  kv(out, "faults.crash_prob", f.crash_prob);
  kv(out, "faults.crash_vtime_max", f.crash_vtime_max);
  kv(out, "faults.crash_lease_seconds", f.crash_lease_seconds);

  // ---- validation / recovery ----
  kv(out, "validate.check_every", validate.check_every);
  kv(out, "validate.checkpoint_every", validate.checkpoint_every);
  kv(out, "validate.max_recoveries", validate.max_recoveries);
  kv(out, "validate.invariants.balance_tolerance",
     validate.invariants.balance_tolerance);
  kv(out, "validate.invariants.balance_slack",
     validate.invariants.balance_slack);
  kv(out, "validate.invariants.energy_factor",
     validate.invariants.energy_factor);
  kv(out, "validate.invariants.verify_keys", validate.invariants.verify_keys);

  // ---- observers (effective on/off state; output paths excluded) ----
  const bool analyze_on = analyze.enabled || analyze.audit_determinism ||
                          analysis::analyzer_env_enabled();
  kv(out, "analyze.enabled", analyze_on);
  kv(out, "analyze.audit_determinism", analyze.audit_determinism);
  const bool trace_on = trace.on() || trace::trace_env_path() != nullptr ||
                        trace::trace_metrics_env_path() != nullptr;
  kv(out, "trace.enabled", trace_on);

  kv(out, "sample_energy_every", sample_energy_every);
  return out;
}

std::string PicParams::fingerprint() const {
  const std::string text = canonical();
  const std::uint64_t h =
      sim::fnv1a(reinterpret_cast<const std::byte*>(text.data()), text.size());
  char buf[17];
  static const char* hex = "0123456789abcdef";
  for (int i = 0; i < 16; ++i)
    buf[i] = hex[(h >> (60 - 4 * i)) & 0xf];
  buf[16] = '\0';
  return std::string(buf, 16);
}

}  // namespace picpar::pic
