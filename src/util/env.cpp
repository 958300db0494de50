#include "util/env.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace picpar {

const char* env_get(const char* name) { return std::getenv(name); }

bool env_enabled(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

const char* env_path(const char* name) {
  return env_enabled(name) ? std::getenv(name) : nullptr;
}

bool parse_int_strict(const char* text, long min, long max, long& out) {
  if (!text || text[0] == '\0') return false;
  // strtol tolerates leading whitespace; strictness forbids it. A lone
  // sign ("-", "+") leaves end == text and is rejected below.
  if (text[0] == ' ' || text[0] == '\t' || text[0] == '\n' ||
      text[0] == '\r' || text[0] == '\f' || text[0] == '\v')
    return false;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return false;  // garbage or trailing junk
  if (errno == ERANGE) return false;              // overflowed long
  if (parsed < min || parsed > max) return false;
  out = parsed;
  return true;
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  long parsed = 0;
  if (!parse_int_strict(v, INT_MIN, INT_MAX, parsed)) {
    std::fprintf(stderr,
                 "[picpar:WARN] %s=\"%s\" is not a valid integer; using %d\n",
                 name, v, fallback);
    return fallback;
  }
  return static_cast<int>(parsed);
}

}  // namespace picpar
