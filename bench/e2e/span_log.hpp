// In-memory event log for the traced run, and the attribution that turns it
// into per-layer self times.
//
// The log records two kinds of events in one stream: stepper spans (begin and
// end of each layer call the replay stepper makes) and the machine
// observer's send, receive, phase and mark callbacks. The sequential engine
// runs one rank at a time and its handoff lock orders every callback, so the
// stream is a total order of what the host CPU did, and appending needs no
// lock of its own.
//
// Attribution rule: the interval between two consecutive events of the same
// rank is self time of that rank's innermost open span. An interval whose
// two events belong to different ranks is scheduler handoff (sim.handoff):
// the outgoing rank's matching scan, the yield, the futex wakeup and the
// incoming rank's resume. An interval between the main thread and a rank is
// thread spawn or join (sim.run_edges). Same-rank time with no open span is
// unattributed; it should be close to zero.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace picpar::bench_e2e {

/// Every bucket host time can land in. Spans first, then the three
/// buckets no span opens.
enum class Layer : std::uint16_t {
  kLoadout,       ///< scenario loadout of the global population (main)
  kDomainBuild,   ///< curve + key cache (main); Domain + policy (ranks)
  kSetupInit,     ///< per-rank init parent: initial slice copy
  kDistribute,    ///< assign_keys + distribute (initial sample sort)
  kCollective,    ///< allreduces the stepper itself issues
  kIteration,     ///< per-iteration parent: phase switches, bookkeeping
  kInject,        ///< boundary injection (empty span when off)
  kDeposit,       ///< charge/current deposit into owned + ghost slots
  kFlushScatter,  ///< GhostExchange::flush_scatter
  kFieldSolve,    ///< MaxwellSolver::step
  kFetchFields,   ///< GhostExchange::fetch_fields
  kGatherKick,    ///< field gather + Boris kick
  kPush,          ///< position advance + key update (+ absorption)
  kRedistribute,  ///< SAR decision + incremental redistribution
  kFinalize,      ///< per-rank final diagnostics
  kAggregate,     ///< result merge on the main thread
  kHandoff,       ///< interval crossing two ranks
  kRunEdges,      ///< interval crossing the main thread and a rank
  kUnattributed,  ///< same-rank interval with no span open
  kCount,
};

inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::kCount);

/// Metric-style name of a layer, e.g. "core.ghost.flush_scatter".
const char* layer_name(Layer l);

class SpanLog final : public sim::MachineObserver {
public:
  /// Rank id of the main thread (set-up before and merge after the run).
  static constexpr int kMain = -1;

  enum class Kind : std::uint8_t { kBegin, kEnd, kSend, kRecv, kPhase, kMark };

  struct Event {
    std::uint64_t t_ns = 0;  ///< util::wall_clock()
    std::int32_t rank = 0;
    Kind kind = Kind::kBegin;
    std::uint16_t id = 0;  ///< Layer (spans) or sim::Phase (phase events)
    std::int64_t arg = 0;  ///< iteration (spans) or bytes (sends)
  };

  /// `capacity` events are reserved up front so recording never
  /// reallocates in the common case.
  explicit SpanLog(std::size_t capacity);

  void begin(int rank, Layer l, std::int64_t iter = -1);
  void end(int rank, Layer l);
  /// A boundary event with no span (opens/closes the timed window).
  void instant(int rank);

  const std::vector<Event>& events() const { return events_; }

  void on_run_start(int nranks) override;
  void on_send(sim::Message& m, const sim::SendEvent& e) override;
  void on_recv(const sim::Message& m, const sim::RecvEvent& e,
               const std::deque<sim::Message>& mailbox) override;
  void on_phase(const sim::PhaseEvent& e) override;
  void on_mark(const sim::MarkEvent& e) override;

  /// Chrome-trace JSON: one complete event per span (name, rank, start,
  /// duration, parent span, iteration) and one instant per observer event.
  /// Throws std::runtime_error when the file cannot be written.
  void write_chrome_trace(const std::string& path, int nranks) const;

private:
  void push(int rank, Kind k, std::uint16_t id, std::int64_t arg);
  std::vector<Event> events_;
};

/// RAII stepper span.
class Span {
public:
  Span(SpanLog& log, int rank, Layer l, std::int64_t iter = -1)
      : log_(log), rank_(rank), layer_(l) {
    log_.begin(rank_, layer_, iter);
  }
  ~Span() { log_.end(rank_, layer_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  SpanLog& log_;
  int rank_;
  Layer layer_;
};

/// Per-layer host time of one traced run, from the attribution rule.
struct Breakdown {
  std::array<double, kNumLayers> self_s{};  ///< summed over ranks
  std::uint64_t handoffs = 0;    ///< rank-to-rank transitions
  std::uint64_t iter_msgs = 0;   ///< sends inside pic.iteration spans
  std::uint64_t iter_bytes = 0;  ///< payload bytes of those sends
  /// Host ms per iteration: from one rank-0 iteration start to the next
  /// (the last one ends at the last iteration event of any rank).
  std::vector<double> iter_ms;

  double self(Layer l) const { return self_s[static_cast<std::size_t>(l)]; }
};

/// Apply the attribution rule to a log whose first and last events are
/// main-thread instants. Throws std::logic_error on unbalanced spans.
Breakdown attribute(const std::vector<SpanLog::Event>& events, int iterations);

}  // namespace picpar::bench_e2e
