#include "sweep/sweep.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "pic/simulation.hpp"
#include "sfc/curve.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "util/table.hpp"

namespace picpar::sweep {

const char* source_name(Source s) {
  switch (s) {
    case Source::kSimulated: return "simulated";
    case Source::kCache: return "cache";
    case Source::kDedup: return "dedup";
  }
  return "?";
}

namespace {

/// The metrics file of a job: the sink its params or PICPAR_TRACE_METRICS
/// name, with the fingerprint before the extension ("" when none is named).
std::string metrics_file(const pic::PicParams& params,
                         const std::string& fingerprint) {
  std::string sink = params.trace.metrics_path;
  if (sink.empty())
    if (const char* p = trace::trace_metrics_env_path()) sink = p;
  if (sink.empty()) return sink;
  const std::filesystem::path path(sink);
  return (path.parent_path() / (path.stem().string() + "." + fingerprint +
                                path.extension().string()))
      .string();
}

}  // namespace

SweepReport run_sweep(const std::vector<Job>& jobs, const SweepOptions& opt) {
  SweepReport report;
  report.stats.jobs = jobs.size();
  report.outcomes.resize(jobs.size());

  std::optional<ResultCache> cache;
  if (!opt.cache_dir.empty()) cache.emplace(opt.cache_dir);

  // Collapse to unique fingerprints, keeping first-submission order.
  struct Unique {
    std::string fingerprint;
    std::string canonical;
    std::size_t first_job = 0;
    std::string metrics_file;
    Source source = Source::kSimulated;
    bool corrupt_replaced = false;
    pic::PicResult result;
  };
  std::vector<Unique> unique;
  std::map<std::string, std::size_t> index;  // fingerprint -> unique slot
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    auto& out = report.outcomes[j];
    out.label = jobs[j].label;
    out.params = jobs[j].params;
    out.fingerprint = jobs[j].params.fingerprint();
    if (index.emplace(out.fingerprint, unique.size()).second) {
      Unique u;
      u.fingerprint = out.fingerprint;
      u.canonical = jobs[j].params.canonical();
      u.first_job = j;
      u.metrics_file = metrics_file(jobs[j].params, u.fingerprint);
      unique.push_back(std::move(u));
    }
  }
  report.stats.unique = unique.size();

  // Serial cache probe: misses (and torn entries) fall through to compute.
  std::vector<std::size_t> misses;
  for (std::size_t u = 0; u < unique.size(); ++u) {
    if (cache) {
      switch (cache->load(unique[u].fingerprint, unique[u].result)) {
        case CacheLoad::kHit:
          unique[u].source = Source::kCache;
          ++report.stats.hits;
          continue;
        case CacheLoad::kCorrupt:
          unique[u].corrupt_replaced = true;
          ++report.stats.corrupt;
          break;
        case CacheLoad::kMiss:
          break;
      }
    }
    misses.push_back(u);
  }

  // Fan the misses out over host cores; results land in their slots, so
  // completion order never shows in the report.
  report.stats.simulated = misses.size();
  run_indexed(opt.jobs, misses.size(), [&](std::size_t m) {
    Unique& u = unique[misses[m]];
    // Paths are outside the fingerprint: naming the job's own metrics file
    // keeps concurrent runs off one shared sink.
    pic::PicParams params = jobs[u.first_job].params;
    if (!u.metrics_file.empty()) params.trace.metrics_path = u.metrics_file;
    u.result = pic::run_pic(params);
  });

  // Every unique job's metrics file, from its result: a cache hit writes
  // the bytes its cold run did.
  for (const Unique& u : unique) {
    if (u.metrics_file.empty()) continue;
    std::ofstream f(u.metrics_file, std::ios::binary | std::ios::trunc);
    if (!f) throw std::runtime_error("sweep: cannot open " + u.metrics_file);
    f << u.result.metrics_json;
  }

  // Persist fresh results serially in submission order: deterministic
  // entry mtimes keep trim()'s eviction order reproducible.
  if (cache) {
    for (const std::size_t m : misses)
      cache->store(unique[m].fingerprint, unique[m].canonical,
                   unique[m].result);
    if (opt.max_entries > 0)
      report.stats.evicted = cache->trim(opt.max_entries);
  }

  // Fill every job's outcome; later duplicates share the unique result.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    auto& out = report.outcomes[j];
    const Unique& u = unique[index.at(out.fingerprint)];
    out.source = u.first_job == j ? u.source : Source::kDedup;
    out.corrupt_replaced = u.first_job == j && u.corrupt_replaced;
    out.result = u.result;
  }
  return report;
}

namespace {

using trace::detail::append_num;

/// The comparison columns: virtual-time metrics only (see sweep.hpp).
struct Column {
  const char* name;
  std::string (*value)(const Outcome& o);
};

std::string str_u64(std::uint64_t v) {
  std::string s;
  append_num(s, v);
  return s;
}

std::string str_dbl(double v) {
  std::string s;
  append_num(s, v);
  return s;
}

const Column kColumns[] = {
    {"label", [](const Outcome& o) { return o.label; }},
    {"fingerprint", [](const Outcome& o) { return o.fingerprint; }},
    {"policy",
     [](const Outcome& o) {
       // Grid-spec syntax: decision half plus the balancer half when it is
       // not the default Lagrangian scheme ("sar+eulerian").
       const auto& bal = o.params.partitioner.balancer;
       if (bal.empty() || bal == "lagrange") return o.params.policy;
       return o.params.policy + "+" + bal;
     }},
    {"scenario", [](const Outcome& o) { return o.params.scenario; }},
    {"curve",
     [](const Outcome& o) {
       return std::string(sfc::curve_kind_name(o.params.curve));
     }},
    {"ranks",
     [](const Outcome& o) { return std::to_string(o.params.nranks); }},
    {"particles",
     [](const Outcome& o) { return str_u64(o.params.init.total); }},
    {"iterations",
     [](const Outcome& o) { return std::to_string(o.params.iterations); }},
    {"total_s",
     [](const Outcome& o) { return str_dbl(o.result.total_seconds); }},
    {"compute_s",
     [](const Outcome& o) { return str_dbl(o.result.compute_seconds); }},
    {"overhead_s",
     [](const Outcome& o) { return str_dbl(o.result.overhead_seconds()); }},
    {"redistributions",
     [](const Outcome& o) { return std::to_string(o.result.redistributions); }},
    {"redist_s",
     [](const Outcome& o) { return str_dbl(o.result.redist_seconds_total); }},
    {"recoveries",
     [](const Outcome& o) { return std::to_string(o.result.recoveries); }},
    {"crashes",
     [](const Outcome& o) { return std::to_string(o.result.crash_count); }},
    {"final_ranks",
     [](const Outcome& o) { return std::to_string(o.result.final_ranks); }},
    {"final_particles",
     [](const Outcome& o) { return str_u64(o.result.final_particles); }},
    {"field_energy",
     [](const Outcome& o) { return str_dbl(o.result.field_energy); }},
    {"kinetic_energy",
     [](const Outcome& o) { return str_dbl(o.result.kinetic_energy); }},
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string comparison_csv(const SweepReport& report) {
  std::string out;
  bool first = true;
  for (const auto& col : kColumns) {
    if (!first) out += ',';
    out += col.name;
    first = false;
  }
  out += '\n';
  for (const auto& o : report.outcomes) {
    first = true;
    for (const auto& col : kColumns) {
      if (!first) out += ',';
      out += col.value(o);
      first = false;
    }
    out += '\n';
  }
  return out;
}

std::string comparison_json(const SweepReport& report) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& o = report.outcomes[i];
    out += "  {";
    bool first = true;
    for (const auto& col : kColumns) {
      if (!first) out += ", ";
      out += '"';
      out += col.name;
      out += "\": \"";
      out += json_escape(col.value(o));
      out += '"';
      first = false;
    }
    out += '}';
    if (i + 1 < report.outcomes.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

std::string comparison_table(const SweepReport& report) {
  std::vector<std::string> header;
  for (const auto& col : kColumns) header.emplace_back(col.name);
  Table t(header);
  for (const auto& o : report.outcomes) {
    t.row();
    for (const auto& col : kColumns) t.add(col.value(o));
  }
  return t.ascii();
}

std::string provenance_csv(const SweepReport& report) {
  std::string out = "label,fingerprint,source,corrupt_replaced\n";
  for (const auto& o : report.outcomes) {
    out += o.label;
    out += ',';
    out += o.fingerprint;
    out += ',';
    out += source_name(o.source);
    out += ',';
    out += o.corrupt_replaced ? '1' : '0';
    out += '\n';
  }
  return out;
}

}  // namespace picpar::sweep
