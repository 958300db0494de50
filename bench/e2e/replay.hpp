// Bench-side replay of pic::run_pic, instrumented with stepper spans.
//
// The stepper calls the same public layer functions run_pic calls, in the
// same order and with the same virtual-time charges, on a bench-owned
// sim::Machine whose observer is the span log. Its digest must equal
// run_pic's for the same parameters; the traced run fails otherwise.
//
// It covers only what the benchmark workloads use: the Maxwell solver,
// curve grid decomposition, any redistribution policy spec, scenarios
// without driver or seed fields, and no faults, validation, crashes,
// tracing, analysis, energy sampling or parallel engine. Anything else
// throws std::invalid_argument before the run starts.
#pragma once

#include <cstdint>
#include <vector>

#include "pic/config.hpp"
#include "span_log.hpp"
#include "workloads.hpp"

namespace picpar::bench_e2e {

struct ReplayResult {
  Digest digest;
  /// Per iteration: did the policy redistribute after it.
  std::vector<char> redistributed;
  std::uint64_t ghost_entries = 0;    ///< summed over ranks and iterations
  std::uint64_t foreign_touches = 0;  ///< stencil vertices not owned
  std::uint64_t redist_moved = 0;     ///< particles sent to another rank
  std::uint64_t redist_present = 0;   ///< particles held when redistributing
};

/// Log capacity that keeps a replay of `params` from reallocating.
std::size_t log_capacity(const pic::PicParams& params);

ReplayResult replay(const pic::PicParams& params, SpanLog& log);

}  // namespace picpar::bench_e2e
