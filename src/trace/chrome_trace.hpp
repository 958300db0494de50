// Chrome-trace-event exporter (the JSON object format Perfetto and
// chrome://tracing load directly).
//
// Layout: one process (pid 0, "picpar virtual time"), one thread track per
// rank. Phase spans become complete ("X") events with ts/dur in virtual
// microseconds; message flows become "s"/"f" flow-event pairs bound to the
// enclosing spans; marks become instant ("i") events (global scope for
// pic.redist.*/pic.violation/pic.recovered, thread scope otherwise); the
// redistribution timeline adds per-rank particle counters and a
// degree-of-imbalance counter ("C" events).
//
// Determinism: everything written is derived from virtual time and
// formatted via std::to_chars, one event per line, so the output is
// byte-identical between sequential and parallel execution of the same
// program. Wall-clock span times are schedule-dependent and never written.
#pragma once

#include <string>

#include "trace/tracer.hpp"

namespace picpar::trace {

struct ChromeTraceOptions {
  /// Emit send->recv flow events.
  bool flows = true;
};

/// Render the trace as a Chrome-trace JSON string. `timeline` (optional)
/// supplies the counter tracks; without it none are written.
std::string to_chrome_json(const TraceData& data,
                           const ChromeTraceOptions& opt = {},
                           const RedistTimeline* timeline = nullptr);

/// Write to_chrome_json output to `path`; throws std::runtime_error when
/// the file cannot be written.
void write_chrome_trace(const std::string& path, const TraceData& data,
                        const ChromeTraceOptions& opt = {},
                        const RedistTimeline* timeline = nullptr);

}  // namespace picpar::trace
