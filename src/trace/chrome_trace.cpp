#include "trace/chrome_trace.hpp"

#include <fstream>
#include <stdexcept>

#include "sim/comm_stats.hpp"

namespace picpar::trace {

namespace {

using detail::append_num;

void append_i64(std::string& out, std::int64_t v) { append_num(out, v); }

void append_common(std::string& out, const char* name, const char* cat,
                   const char* ph, int tid, double ts_us) {
  out += "{\"name\":\"";
  out += name;
  out += "\",\"cat\":\"";
  out += cat;
  out += "\",\"ph\":\"";
  out += ph;
  out += "\",\"pid\":0,\"tid\":";
  append_i64(out, tid);
  out += ",\"ts\":";
  append_num(out, ts_us);
}

/// Global-scope instants render as full-height markers; rank-local events
/// stay on their thread track.
bool global_scope(const std::string& name) {
  return name.rfind("pic.redist", 0) == 0 || name == kMarkViolation ||
         name == kMarkRecovered;
}

}  // namespace

std::string to_chrome_json(const TraceData& data,
                           const ChromeTraceOptions& opt,
                           const RedistTimeline* timeline) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto next = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  next();
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"picpar virtual time\"}}";
  for (int r = 0; r < data.nranks; ++r) {
    next();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    append_i64(out, r);
    out += ",\"args\":{\"name\":\"rank ";
    append_i64(out, r);
    out += "\"}}";
    next();
    out += "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    append_i64(out, r);
    out += ",\"args\":{\"sort_index\":";
    append_i64(out, r);
    out += "}}";
  }

  for (const Span& s : data.spans) {
    next();
    append_common(out, sim::phase_name(s.phase), "phase", "X", s.rank,
                  s.t0 * 1e6);
    out += ",\"dur\":";
    append_num(out, (s.t1 - s.t0) * 1e6);
    out += '}';
  }

  if (opt.flows) {
    for (const Flow& f : data.flows) {
      // Flow ids are strings so they never collide with JSON number
      // precision; (src, dst, seq) is unique per run.
      next();
      append_common(out, "msg", "flow", "s", f.src, f.t_send * 1e6);
      out += ",\"id\":\"f";
      append_i64(out, f.src);
      out += '.';
      append_i64(out, f.dst);
      out += '.';
      append_num(out, f.seq);
      out += "\",\"args\":{\"tag\":";
      append_i64(out, f.tag);
      out += ",\"bytes\":";
      append_num(out, static_cast<std::uint64_t>(f.bytes));
      out += ",\"collective\":";
      out += f.collective ? "true" : "false";
      out += "}}";
      next();
      append_common(out, "msg", "flow", "f", f.dst, f.t_recv * 1e6);
      out += ",\"bp\":\"e\",\"id\":\"f";
      append_i64(out, f.src);
      out += '.';
      append_i64(out, f.dst);
      out += '.';
      append_num(out, f.seq);
      out += "\"}";
    }
  }

  for (const Mark& m : data.marks) {
    next();
    append_common(out, m.name.c_str(), "mark", "i", m.rank, m.vtime * 1e6);
    out += ",\"s\":\"";
    out += global_scope(m.name) ? 'g' : 't';
    out += "\",\"args\":{\"iter\":";
    append_i64(out, m.iter);
    out += ",\"value\":";
    append_num(out, m.value);
    out += "}}";
  }

  if (timeline) {
    for (const IterSample& s : timeline->iters) {
      for (int r = 0; r < timeline->nranks; ++r) {
        next();
        out += "{\"name\":\"particles[r";
        append_i64(out, r);
        out += "]\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":0,\"ts\":";
        append_num(out, s.vtime * 1e6);
        out += ",\"args\":{\"n\":";
        append_num(out, s.particles[static_cast<std::size_t>(r)]);
        out += "}}";
      }
      next();
      out += "{\"name\":\"imbalance\",\"cat\":\"counter\",\"ph\":\"C\","
             "\"pid\":0,\"ts\":";
      append_num(out, s.vtime * 1e6);
      out += ",\"args\":{\"max_over_mean\":";
      append_num(out, RedistTimeline::imbalance(s));
      out += "}}";
    }
  }

  out += "\n]}\n";
  return out;
}

void write_chrome_trace(const std::string& path, const TraceData& data,
                        const ChromeTraceOptions& opt,
                        const RedistTimeline* timeline) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("trace: cannot open " + path);
  const std::string json = to_chrome_json(data, opt, timeline);
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!f) throw std::runtime_error("trace: write failed for " + path);
}

}  // namespace picpar::trace
