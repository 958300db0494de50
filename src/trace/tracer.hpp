// Deterministic tracer for the simulated machine.
//
// A Tracer reads a completed RunRecord (trace/run_record.hpp) and derives,
// in rank order: phase spans (virtual-time intervals between
// Comm::set_phase changes, the last closed at the rank's final clock),
// message flows (each receive paired with its send), named instants
// (Comm::mark), the redistribution timeline and the metrics registry. The
// record's per-rank event sequences and virtual times are
// schedule-independent, so everything derived from them (TraceData minus
// wall-time fields, RedistTimeline, MetricsSnapshot) is byte-identical
// between sequential and parallel execution.
//
// Wall-clock times are recorded alongside the virtual spans but no
// exporter writes them; they describe one run on one host, not the
// simulated machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/run_record.hpp"

namespace picpar::trace {

// Mark names emitted by the PIC driver (src/pic) and the transport layer.
// The tracer folds `pic.*` marks into the redistribution timeline; every
// mark also appears verbatim in TraceData::marks.
inline constexpr const char* kMarkIter = "pic.iter";            ///< rank 0, value = loop seconds
inline constexpr const char* kMarkParticles = "pic.particles";  ///< every rank, value = local count
inline constexpr const char* kMarkRedistDecision = "pic.redist.decision";
inline constexpr const char* kMarkRedistDone = "pic.redist.done";  ///< value = redist seconds
inline constexpr const char* kMarkRedistSent = "pic.redist.sent";  ///< every rank, value = particles sent
inline constexpr const char* kMarkGhostEntries =
    "pic.ghost_entries";  ///< every rank, value = distinct ghost nodes
inline constexpr const char* kMarkViolation = "pic.violation";  ///< value = validation mask
inline constexpr const char* kMarkRecovered = "pic.recovered";  ///< value = recovery seconds
inline constexpr const char* kMarkInit = "pic.init";  ///< iter = -1, value = init seconds
inline constexpr const char* kMarkTransportRetry = "transport.retry";
// Fail-stop recovery marks. The first three are emitted by the machine
// itself (sim/machine.cpp uses the string literals; keep them in sync):
// fault.crash at the crashing rank's last instant, fault.crash_detected at
// the survivor that first times out the dead peer's lease (value = newly
// detected peers), membership.agree on every survivor when the shrunken
// view commits (iter = epoch, value = survivor count). The pic.* marks are
// emitted by run_pic during recovery orchestration.
inline constexpr const char* kMarkCrash = "fault.crash";
inline constexpr const char* kMarkCrashDetected = "fault.crash_detected";
inline constexpr const char* kMarkMembership = "membership.agree";
inline constexpr const char* kMarkCrashRecovered =
    "pic.crash_recovered";  ///< rank 0, iter = resume iter, value = MTTR s
inline constexpr const char* kMarkCrashLost =
    "pic.crash_lost";  ///< rank 0, value = particles lost to the crash
inline constexpr const char* kMarkCrashRestored =
    "pic.crash_restored";  ///< rank 0, value = particles restored from ckpt
// Per-subsystem memory-budget breakdown (every rank, per-run peak bytes).
// All three are deterministic functions of the rank's event history, so the
// derived gauges stay byte-identical at every worker count.
inline constexpr const char* kMarkMemMachine =
    "mem.machine_bytes";  ///< sparse per-peer transport tables
inline constexpr const char* kMarkMemExchange =
    "mem.exchange_bytes";  ///< ghost tables + staged exchange messages
inline constexpr const char* kMarkMemSort =
    "mem.sort_bytes";  ///< partitioner sort buckets + bounds

/// One contiguous interval a rank spent in one phase. Virtual times are
/// deterministic; w0/w1 are wall-clock microseconds since run start and are
/// schedule-dependent.
struct Span {
  int rank = 0;
  sim::Phase phase = sim::Phase::kOther;
  double t0 = 0.0;
  double t1 = 0.0;
  double w0 = 0.0;
  double w1 = 0.0;
};

/// One matched message: send on (src, seq) link order, receive at t_recv.
struct Flow {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::uint64_t seq = 0;
  std::size_t bytes = 0;
  sim::Phase send_phase = sim::Phase::kOther;
  sim::Phase recv_phase = sim::Phase::kOther;
  double t_send = 0.0;
  double t_recv = 0.0;
  bool collective = false;
};

/// One named instant (Comm::mark or transport event).
struct Mark {
  int rank = 0;
  std::string name;
  sim::Phase phase = sim::Phase::kOther;
  double vtime = 0.0;
  std::int64_t iter = 0;
  double value = 0.0;
};

/// Everything the tracer knows after one run, merged in rank order.
struct TraceData {
  int nranks = 0;
  std::vector<Span> spans;  ///< rank-major, time order within a rank
  std::vector<Flow> flows;  ///< receiver-major, receive order
  std::vector<Mark> marks;  ///< rank-major, emit order
  std::vector<double> final_clocks;
  std::uint64_t dropped_sends = 0;  ///< sends past the record's budget
  std::uint64_t dropped_recvs = 0;
  std::uint64_t dropped_marks = 0;
  std::uint64_t unreceived_msgs = 0;  ///< left in mailboxes at quiescence
};

/// One PIC iteration reconstructed from `pic.*` marks: the data behind the
/// paper's Figs 11-17 (per-rank particle counts, loop time, redistribution
/// cost and volume).
struct IterSample {
  std::int64_t iter = 0;
  double vtime = 0.0;         ///< rank-0 clock at the iteration boundary
  double loop_seconds = 0.0;  ///< global loop time (paper's t_i)
  bool redistributed = false;
  double redist_seconds = 0.0;
  std::uint64_t moved = 0;  ///< particles exchanged in redistribution
  bool violation = false;
  bool recovered = false;
  std::vector<std::uint64_t> particles;  ///< per-rank counts after the iter
};

struct RedistTimeline {
  int nranks = 0;
  std::vector<IterSample> iters;

  /// Degree of imbalance max/mean for one sample; 0 with no particles.
  static double imbalance(const IterSample& s);

  /// CSV: iter,vtime,loop_seconds,redistributed,redist_seconds,moved,
  /// violation,recovered,imbalance,p0..p{n-1} — one row per iteration.
  std::string to_csv() const;
};

class Tracer {
public:
  /// Derive everything from `record`, which must hold a completed run.
  explicit Tracer(const RunRecord& record);

  const TraceData& data() const { return data_; }
  const RedistTimeline& timeline() const { return timeline_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }
  /// Events the run fired (sends + receives + phase changes + marks),
  /// stored or past the budget.
  std::uint64_t events() const { return events_; }

private:
  void build_flows(const RunRecord& record);
  void build_timeline();
  void build_metrics(const RunRecord& record);

  TraceData data_;
  RedistTimeline timeline_;
  MetricsRegistry metrics_;
  std::uint64_t events_ = 0;
};

/// Value of PICPAR_TRACE (Chrome-trace output path) when tracing is
/// enabled by environment, else nullptr. "" and "0" mean disabled, like
/// every other PICPAR_* opt-in.
const char* trace_env_path();
/// Same for PICPAR_TRACE_METRICS (metrics JSON output path).
const char* trace_metrics_env_path();

}  // namespace picpar::trace
