// Deterministic serialization of a complete PicResult — the payload the
// sweep result cache (src/sweep) persists so a cached configuration
// rehydrates without re-simulation.
//
// The format is line-oriented text: fixed-order "key=value" scalars
// (doubles in std::to_chars shortest round-trip form, so parsing restores
// the exact bits), fixed-column rows for the per-iteration records and
// per-rank machine reports, and length-prefixed raw blocks for the embedded
// exports (analysis report, metrics JSON, timeline CSV), which round-trip
// verbatim. Everything in the PicResult is covered except its one
// schedule-dependent member, phase_wall_us: the per-rank clocks, per-phase
// traffic counters, fault tallies and transport link stats the benches
// aggregate over all round-trip, so a rehydrated result matches a fresh one
// field for field. phase_wall_us measures the host of one run, not the
// simulated machine (see result.hpp), so a parsed result has it empty
// rather than replaying the wall times of whichever run wrote the entry.
//
// parse_result is strict: any structural mismatch, bad number, or trailing
// garbage throws std::runtime_error. The cache treats a throw as a corrupt
// entry and falls back to recomputation.
#pragma once

#include <string>
#include <string_view>

#include "pic/result.hpp"

namespace picpar::pic {

/// Serialize every field of `r` but phase_wall_us into the deterministic
/// text format. Round trip is exact: serialize_result(parse_result(s)) == s.
std::string serialize_result(const PicResult& r);

/// Inverse of serialize_result. Throws std::runtime_error on malformed
/// input (truncation, bad numbers, version mismatch, trailing bytes).
PicResult parse_result(std::string_view text);

}  // namespace picpar::pic
