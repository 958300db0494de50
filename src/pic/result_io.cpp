#include "pic/result_io.hpp"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "sim/comm_stats.hpp"
#include "trace/metrics.hpp"

namespace picpar::pic {

namespace {

using trace::detail::append_num;

constexpr std::string_view kMagic = "picpar-result v3";

// ---------------------------------------------------------------------------
// Writing

void put(std::string& out, const char* key, double v) {
  out += key;
  out += '=';
  append_num(out, v);
  out += '\n';
}

void put(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += '=';
  append_num(out, v);
  out += '\n';
}

void put(std::string& out, const char* key, std::int64_t v) {
  out += key;
  out += '=';
  append_num(out, v);
  out += '\n';
}

void put(std::string& out, const char* key, int v) {
  put(out, key, static_cast<std::int64_t>(v));
}

void put(std::string& out, const char* key, bool v) {
  out += key;
  out += '=';
  out += v ? '1' : '0';
  out += '\n';
}

/// Length-prefixed raw block: "key:<nbytes>\n<bytes>\n". The payload is
/// copied verbatim, so embedded newlines and arbitrary text round-trip.
void put_blob(std::string& out, const char* key, const std::string& v) {
  out += key;
  out += ':';
  append_num(out, static_cast<std::uint64_t>(v.size()));
  out += '\n';
  out += v;
  out += '\n';
}

void sep(std::string& out) { out += ','; }

// ---------------------------------------------------------------------------
// Reading

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("parse_result: malformed input: ") +
                           what);
}

struct Reader {
  std::string_view text;
  std::size_t pos = 0;

  bool done() const { return pos >= text.size(); }

  std::string_view line() {
    if (done()) fail("unexpected end of input");
    const auto nl = text.find('\n', pos);
    if (nl == std::string_view::npos) fail("unterminated line");
    std::string_view l = text.substr(pos, nl - pos);
    pos = nl + 1;
    return l;
  }

  /// "key=value" line; returns the value part.
  std::string_view value(std::string_view key) {
    std::string_view l = line();
    if (l.substr(0, key.size()) != key || l.size() == key.size() ||
        l[key.size()] != '=')
      fail("unexpected key");
    return l.substr(key.size() + 1);
  }

  /// "key:<n>\n<n raw bytes>\n" block; returns the raw bytes.
  std::string blob(std::string_view key) {
    std::string_view l = line();
    if (l.substr(0, key.size()) != key || l.size() == key.size() ||
        l[key.size()] != ':')
      fail("unexpected blob key");
    std::uint64_t n = 0;
    const auto lenstr = l.substr(key.size() + 1);
    const auto r =
        std::from_chars(lenstr.data(), lenstr.data() + lenstr.size(), n);
    if (r.ec != std::errc{} || r.ptr != lenstr.data() + lenstr.size())
      fail("bad blob length");
    if (text.size() - pos < n + 1) fail("truncated blob");
    std::string v(text.substr(pos, static_cast<std::size_t>(n)));
    pos += static_cast<std::size_t>(n);
    if (text[pos] != '\n') fail("unterminated blob");
    ++pos;
    return v;
  }
};

template <typename T>
T num(std::string_view s) {
  T v{};
  const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  if (r.ec != std::errc{} || r.ptr != s.data() + s.size()) fail("bad number");
  return v;
}

bool flag(std::string_view s) {
  if (s == "1") return true;
  if (s == "0") return false;
  fail("bad flag");
}

/// Comma-field cursor over one row line.
struct Row {
  std::string_view line;
  std::size_t pos = 0;

  std::string_view field() {
    if (pos > line.size()) fail("too few row fields");
    const auto end = line.find(',', pos);
    std::string_view f = end == std::string_view::npos
                             ? line.substr(pos)
                             : line.substr(pos, end - pos);
    pos = end == std::string_view::npos ? line.size() + 1 : end + 1;
    return f;
  }
  void end() const {
    if (pos <= line.size()) fail("too many row fields");
  }
};

}  // namespace

std::string serialize_result(const PicResult& r) {
  std::string out;
  out.reserve(4096 + r.iters.size() * 96 + r.machine.ranks.size() * 512 +
              r.metrics_json.size() + r.timeline_csv.size() +
              r.analysis_report.size());
  out += kMagic;
  out += '\n';

  put(out, "total_seconds", r.total_seconds);
  put(out, "compute_seconds", r.compute_seconds);
  put(out, "redistributions", r.redistributions);
  put(out, "redist_seconds_total", r.redist_seconds_total);
  put(out, "initial_distribution_seconds", r.initial_distribution_seconds);
  put(out, "recoveries", r.recoveries);
  put(out, "violation_iterations", r.violation_iterations);
  put(out, "initial_particles", r.initial_particles);
  put(out, "final_particles", r.final_particles);
  put(out, "emitted_particles", r.emitted_particles);
  put(out, "absorbed_particles", r.absorbed_particles);
  put(out, "crash_count", r.crash_count);
  put(out, "crash_recoveries", r.crash_recoveries);
  put(out, "final_ranks", r.final_ranks);
  put(out, "mttr_seconds_total", r.mttr_seconds_total);
  put(out, "crash_lost_particles", r.crash_lost_particles);
  put(out, "crash_restored_particles", r.crash_restored_particles);
  put(out, "final_imbalance", r.final_imbalance);
  put(out, "analysis_findings", r.analysis_findings);
  put(out, "hb_fingerprint", r.hb_fingerprint);
  put(out, "determinism_audit", r.determinism_audit);
  put(out, "traced", r.traced);
  put(out, "trace_events", r.trace_events);
  put(out, "field_energy", r.field_energy);
  put(out, "kinetic_energy", r.kinetic_energy);
  put(out, "total_charge", r.total_charge);

  put(out, "iters", static_cast<std::uint64_t>(r.iters.size()));
  for (const IterRecord& it : r.iters) {
    append_num(out, static_cast<std::int64_t>(it.iter));
    sep(out);
    append_num(out, it.exec_seconds);
    sep(out);
    append_num(out, it.loop_seconds);
    sep(out);
    append_num(out, it.scatter_max_sent_bytes);
    sep(out);
    append_num(out, it.scatter_max_recv_bytes);
    sep(out);
    append_num(out, it.scatter_max_sent_msgs);
    sep(out);
    append_num(out, it.scatter_max_recv_msgs);
    sep(out);
    append_num(out, it.max_ghost_entries);
    sep(out);
    out += it.redistributed ? '1' : '0';
    sep(out);
    append_num(out, it.redist_seconds);
    sep(out);
    append_num(out, it.redist_particles_moved);
    sep(out);
    append_num(out, std::uint64_t{it.violation_mask});
    sep(out);
    out += it.recovered ? '1' : '0';
    sep(out);
    out += it.crash_recovered ? '1' : '0';
    out += '\n';
  }

  put(out, "energy", static_cast<std::uint64_t>(r.energy_history.size()));
  for (const EnergySample& e : r.energy_history) {
    append_num(out, static_cast<std::int64_t>(e.iter));
    sep(out);
    append_num(out, e.field);
    sep(out);
    append_num(out, e.kinetic);
    out += '\n';
  }

  put(out, "machine.epochs", r.machine.epochs);
  put(out, "machine.crashes",
      static_cast<std::uint64_t>(r.machine.crashes.size()));
  for (const sim::CrashRecord& c : r.machine.crashes) {
    append_num(out, static_cast<std::int64_t>(c.rank));
    sep(out);
    append_num(out, c.vtime);
    out += '\n';
  }

  put(out, "machine.ranks",
      static_cast<std::uint64_t>(r.machine.ranks.size()));
  for (const sim::RankReport& rr : r.machine.ranks) {
    out += "rank=";
    append_num(out, static_cast<std::int64_t>(rr.rank));
    sep(out);
    append_num(out, rr.clock);
    sep(out);
    out += rr.crashed ? '1' : '0';
    sep(out);
    append_num(out, rr.crash_vtime);
    sep(out);
    append_num(out, static_cast<std::uint64_t>(rr.links.size()));
    out += '\n';
    out += "stats=";
    for (int p = 0; p < sim::kNumPhases; ++p) {
      const auto& pc = rr.stats.phase(static_cast<sim::Phase>(p));
      if (p != 0) sep(out);
      append_num(out, pc.msgs_sent);
      sep(out);
      append_num(out, pc.bytes_sent);
      sep(out);
      append_num(out, pc.msgs_recv);
      sep(out);
      append_num(out, pc.bytes_recv);
      sep(out);
      append_num(out, pc.comm_seconds);
      sep(out);
      append_num(out, pc.compute_seconds);
    }
    out += '\n';
    out += "faults=";
    append_num(out, rr.faults.transient_slowdowns);
    sep(out);
    append_num(out, rr.faults.jittered_messages);
    sep(out);
    append_num(out, rr.faults.corrupted_deliveries);
    sep(out);
    append_num(out, rr.faults.duplicated_messages);
    sep(out);
    append_num(out, rr.faults.memory_faults);
    sep(out);
    append_num(out, rr.faults.crashes);
    out += '\n';
    out += "links=";
    for (std::size_t l = 0; l < rr.links.size(); ++l) {
      if (l != 0) sep(out);
      append_num(out, rr.links[l].retries);
      sep(out);
      append_num(out, rr.links[l].dup_discards);
      sep(out);
      append_num(out, rr.links[l].corruptions_detected);
    }
    out += '\n';
  }

  put_blob(out, "analysis_report", r.analysis_report);
  put_blob(out, "metrics_json", r.metrics_json);
  put_blob(out, "timeline_csv", r.timeline_csv);
  out += "end\n";
  return out;
}

PicResult parse_result(std::string_view text) {
  PicResult r;
  Reader in{text};
  if (in.line() != kMagic) fail("bad magic / version");

  r.total_seconds = num<double>(in.value("total_seconds"));
  r.compute_seconds = num<double>(in.value("compute_seconds"));
  r.redistributions = num<int>(in.value("redistributions"));
  r.redist_seconds_total = num<double>(in.value("redist_seconds_total"));
  r.initial_distribution_seconds =
      num<double>(in.value("initial_distribution_seconds"));
  r.recoveries = num<int>(in.value("recoveries"));
  r.violation_iterations = num<int>(in.value("violation_iterations"));
  r.initial_particles = num<std::uint64_t>(in.value("initial_particles"));
  r.final_particles = num<std::uint64_t>(in.value("final_particles"));
  r.emitted_particles = num<std::uint64_t>(in.value("emitted_particles"));
  r.absorbed_particles = num<std::uint64_t>(in.value("absorbed_particles"));
  r.crash_count = num<int>(in.value("crash_count"));
  r.crash_recoveries = num<int>(in.value("crash_recoveries"));
  r.final_ranks = num<int>(in.value("final_ranks"));
  r.mttr_seconds_total = num<double>(in.value("mttr_seconds_total"));
  r.crash_lost_particles =
      num<std::uint64_t>(in.value("crash_lost_particles"));
  r.crash_restored_particles =
      num<std::uint64_t>(in.value("crash_restored_particles"));
  r.final_imbalance = num<double>(in.value("final_imbalance"));
  r.analysis_findings = num<std::int64_t>(in.value("analysis_findings"));
  r.hb_fingerprint = num<std::uint64_t>(in.value("hb_fingerprint"));
  r.determinism_audit = num<int>(in.value("determinism_audit"));
  r.traced = flag(in.value("traced"));
  r.trace_events = num<std::uint64_t>(in.value("trace_events"));
  r.field_energy = num<double>(in.value("field_energy"));
  r.kinetic_energy = num<double>(in.value("kinetic_energy"));
  r.total_charge = num<double>(in.value("total_charge"));

  const auto niters = num<std::uint64_t>(in.value("iters"));
  r.iters.reserve(static_cast<std::size_t>(niters));
  for (std::uint64_t i = 0; i < niters; ++i) {
    Row row{in.line()};
    IterRecord it;
    it.iter = num<int>(row.field());
    it.exec_seconds = num<double>(row.field());
    it.loop_seconds = num<double>(row.field());
    it.scatter_max_sent_bytes = num<std::uint64_t>(row.field());
    it.scatter_max_recv_bytes = num<std::uint64_t>(row.field());
    it.scatter_max_sent_msgs = num<std::uint64_t>(row.field());
    it.scatter_max_recv_msgs = num<std::uint64_t>(row.field());
    it.max_ghost_entries = num<std::uint64_t>(row.field());
    it.redistributed = flag(row.field());
    it.redist_seconds = num<double>(row.field());
    it.redist_particles_moved = num<std::uint64_t>(row.field());
    it.violation_mask = num<std::uint32_t>(row.field());
    it.recovered = flag(row.field());
    it.crash_recovered = flag(row.field());
    row.end();
    r.iters.push_back(it);
  }

  const auto nenergy = num<std::uint64_t>(in.value("energy"));
  r.energy_history.reserve(static_cast<std::size_t>(nenergy));
  for (std::uint64_t i = 0; i < nenergy; ++i) {
    Row row{in.line()};
    EnergySample e;
    e.iter = num<int>(row.field());
    e.field = num<double>(row.field());
    e.kinetic = num<double>(row.field());
    row.end();
    r.energy_history.push_back(e);
  }

  r.machine.epochs = num<int>(in.value("machine.epochs"));
  const auto ncrashes = num<std::uint64_t>(in.value("machine.crashes"));
  r.machine.crashes.reserve(static_cast<std::size_t>(ncrashes));
  for (std::uint64_t i = 0; i < ncrashes; ++i) {
    Row row{in.line()};
    sim::CrashRecord c;
    c.rank = num<int>(row.field());
    c.vtime = num<double>(row.field());
    row.end();
    r.machine.crashes.push_back(c);
  }

  const auto nranks = num<std::uint64_t>(in.value("machine.ranks"));
  r.machine.ranks.reserve(static_cast<std::size_t>(nranks));
  for (std::uint64_t i = 0; i < nranks; ++i) {
    sim::RankReport rr;
    Row head{in.value("rank")};
    rr.rank = num<int>(head.field());
    rr.clock = num<double>(head.field());
    rr.crashed = flag(head.field());
    rr.crash_vtime = num<double>(head.field());
    const auto nlinks = num<std::uint64_t>(head.field());
    head.end();

    Row stats{in.value("stats")};
    for (int p = 0; p < sim::kNumPhases; ++p) {
      auto& pc = rr.stats.phase(static_cast<sim::Phase>(p));
      pc.msgs_sent = num<std::uint64_t>(stats.field());
      pc.bytes_sent = num<std::uint64_t>(stats.field());
      pc.msgs_recv = num<std::uint64_t>(stats.field());
      pc.bytes_recv = num<std::uint64_t>(stats.field());
      pc.comm_seconds = num<double>(stats.field());
      pc.compute_seconds = num<double>(stats.field());
    }
    stats.end();

    Row faults{in.value("faults")};
    rr.faults.transient_slowdowns = num<std::uint64_t>(faults.field());
    rr.faults.jittered_messages = num<std::uint64_t>(faults.field());
    rr.faults.corrupted_deliveries = num<std::uint64_t>(faults.field());
    rr.faults.duplicated_messages = num<std::uint64_t>(faults.field());
    rr.faults.memory_faults = num<std::uint64_t>(faults.field());
    rr.faults.crashes = num<std::uint64_t>(faults.field());
    faults.end();

    std::string_view links = in.value("links");
    if (nlinks > 0) {
      Row lrow{links};
      rr.links.reserve(static_cast<std::size_t>(nlinks));
      for (std::uint64_t l = 0; l < nlinks; ++l) {
        sim::LinkStats ls;
        ls.retries = num<std::uint64_t>(lrow.field());
        ls.dup_discards = num<std::uint64_t>(lrow.field());
        ls.corruptions_detected = num<std::uint64_t>(lrow.field());
        rr.links.push_back(ls);
      }
      lrow.end();
    } else if (!links.empty()) {
      fail("unexpected link stats");
    }
    r.machine.ranks.push_back(std::move(rr));
  }

  r.analysis_report = in.blob("analysis_report");
  r.metrics_json = in.blob("metrics_json");
  r.timeline_csv = in.blob("timeline_csv");
  if (in.line() != "end") fail("missing end marker");
  if (!in.done()) fail("trailing bytes");
  return r;
}

}  // namespace picpar::pic
