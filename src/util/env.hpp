// Shared parsing of PICPAR_* environment variables.
//
// Every runtime opt-in (PICPAR_PARALLEL, PICPAR_ANALYZE, PICPAR_TRACE,
// PICPAR_WORKERS) goes through these helpers so the semantics are uniform
// across libraries, benches and examples: a boolean variable is enabled
// when set to anything but "" or "0"; a path-valued variable is its value
// under the same rule; an integer variable falls back when unset or
// malformed. Integer parsing is strict — the whole value must be a decimal
// integer in range, so typos like "1x" or " 2 " fall back (with a one-line
// warning on stderr) instead of being silently half-parsed. See the README
// "Environment variables" table.
#pragma once

namespace picpar {

/// Raw value (may be empty); nullptr when the variable is unset.
const char* env_get(const char* name);

/// Boolean opt-in: set, non-empty, and not "0".
bool env_enabled(const char* name);

/// Path-valued variable: the value when set, non-empty and not "0"
/// (so `PICPAR_TRACE=0` disables like the boolean rule); else nullptr.
const char* env_path(const char* name);

/// Strict decimal parse: an optional +/- sign followed by digits only — no
/// whitespace, no trailing characters, no empty string — and the value must
/// fit [min, max]. Returns false (leaving `out` untouched) otherwise.
bool parse_int_strict(const char* text, long min, long max, long& out);

/// Integer variable: the strictly parsed value when set, well-formed, and
/// within int range; else `fallback`. A set-but-rejected value writes one
/// line to stderr, `[picpar:WARN] NAME="v" is not a valid integer; using
/// N`, so typos are not silently ignored.
int env_int(const char* name, int fallback);

}  // namespace picpar
