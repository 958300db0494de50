#include "trace/tracer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/env.hpp"

namespace picpar::trace {

using detail::append_num;
using Kind = RecordEvent::Kind;

Tracer::Tracer(const RunRecord& record) {
  if (!record.complete())
    throw std::logic_error("Tracer: the record holds no completed run");
  const int nranks = record.nranks();
  // Wall microseconds since the run's start; only the w0/w1 span fields,
  // which no exporter writes, use them (run_pic sums them into
  // PicResult::phase_wall_us).
  const auto wall_us = [&](std::uint64_t ns) {
    return static_cast<double>(ns - record.wall_start_ns()) * 1e-3;
  };
  data_.nranks = nranks;
  data_.final_clocks = record.final_clocks();
  for (int r = 0; r < nranks; ++r) {
    Span open;  // the rank starts in kOther at t = 0
    open.rank = r;
    for (const RecordEvent& e : record.events(r)) {
      if (e.kind == Kind::kPhase) {
        open.t1 = e.vtime;
        open.w1 = wall_us(e.change.wall_ns);
        data_.spans.push_back(open);
        open.phase = e.phase;
        open.t0 = open.t1;
        open.w0 = open.w1;
      } else if (e.kind == Kind::kMark) {
        data_.marks.push_back(Mark{r, e.mark.name, e.phase, e.vtime,
                                   e.mark.iter, e.mark.value});
      }
    }
    open.t1 = data_.final_clocks[static_cast<std::size_t>(r)];
    open.w1 = wall_us(record.wall_end_ns());
    data_.spans.push_back(open);
    data_.dropped_sends += record.dropped(r, Kind::kSend);
    data_.dropped_recvs += record.dropped(r, Kind::kRecv);
    data_.dropped_marks += record.dropped(r, Kind::kMark);
    data_.unreceived_msgs += record.leftovers(r).size();
  }
  events_ = record.total_events();

  build_flows(record);
  build_timeline();
  build_metrics(record);
}

void Tracer::build_flows(const RunRecord& record) {
  for (int r = 0; r < record.nranks(); ++r) {
    for (const RecordEvent& e : record.events(r)) {
      if (e.kind != Kind::kRecv) continue;
      const std::size_t i = record.send_index(e.recv.src, r, e.recv.seq);
      if (i == RunRecord::kNoEvent) continue;  // the send was not stored
      const RecordEvent& send = record.events(e.recv.src)[i];
      Flow f;
      f.src = e.recv.src;
      f.dst = r;
      f.tag = send.send.tag;
      f.seq = e.recv.seq;
      f.bytes = send.send.bytes;
      f.send_phase = send.phase;
      f.recv_phase = e.phase;
      f.t_send = send.vtime;
      f.t_recv = e.vtime;
      f.collective = send.send.collective;
      data_.flows.push_back(f);
    }
  }
}

void Tracer::build_timeline() {
  timeline_.nranks = data_.nranks;
  auto sample = [&](std::int64_t iter) -> IterSample& {
    const auto want = static_cast<std::size_t>(iter) + 1;
    if (timeline_.iters.size() < want) {
      const std::size_t from = timeline_.iters.size();
      timeline_.iters.resize(want);
      for (std::size_t i = from; i < want; ++i) {
        timeline_.iters[i].iter = static_cast<std::int64_t>(i);
        timeline_.iters[i].particles.assign(
            static_cast<std::size_t>(data_.nranks), 0);
      }
    }
    return timeline_.iters[static_cast<std::size_t>(iter)];
  };
  for (const Mark& m : data_.marks) {
    if (m.iter < 0 || m.name.rfind("pic.", 0) != 0) continue;
    IterSample& s = sample(m.iter);
    if (m.name == kMarkIter) {
      s.vtime = m.vtime;
      s.loop_seconds = m.value;
    } else if (m.name == kMarkParticles) {
      s.particles[static_cast<std::size_t>(m.rank)] =
          static_cast<std::uint64_t>(m.value);
    } else if (m.name == kMarkRedistDone) {
      s.redistributed = true;
      s.redist_seconds = m.value;
    } else if (m.name == kMarkRedistSent) {
      s.moved += static_cast<std::uint64_t>(m.value);
    } else if (m.name == kMarkViolation) {
      s.violation = true;
    } else if (m.name == kMarkRecovered) {
      s.recovered = true;
    }
  }
}

void Tracer::build_metrics(const RunRecord& record) {
  for (const Span& s : data_.spans) {
    const double us = (s.t1 - s.t0) * 1e6;
    metrics_.observe(std::string("phase.") + sim::phase_name(s.phase) +
                         ".span_us",
                     static_cast<std::uint64_t>(std::llround(us)));
  }
  for (int r = 0; r < record.nranks(); ++r) {
    for (const RecordEvent& e : record.events(r)) {
      if (e.kind != Kind::kSend) continue;
      const std::string p = sim::phase_name(e.phase);
      metrics_.add("phase." + p + ".msgs_sent");
      metrics_.add("phase." + p + ".bytes_sent", e.send.bytes);
      metrics_.observe("msg.bytes", e.send.bytes);
    }
  }
  for (const Flow& f : data_.flows) {
    const std::string p = sim::phase_name(f.recv_phase);
    metrics_.add("phase." + p + ".msgs_recv");
    metrics_.add("phase." + p + ".bytes_recv", f.bytes);
  }
  // Fail-stop recovery accounting. Every key below is folded only when the
  // corresponding marks exist, so a crash-free run's metrics snapshot is
  // byte-identical to one produced before crash support existed.
  std::uint64_t crashes = 0, detections = 0, epochs = 0;
  double mttr = 0.0, lost = 0.0, restored = 0.0, recoveries = 0.0;
  double mem_machine = 0.0, mem_exchange = 0.0, mem_sort = 0.0;
  for (const Mark& m : data_.marks) {
    if (m.name == kMarkTransportRetry) metrics_.add("transport.retries");
    // Ghost-table size distribution: one observation per rank per
    // iteration, the scatter hot path's working-set histogram (§10).
    if (m.name == kMarkGhostEntries)
      metrics_.observe("pic.ghost_entries",
                       static_cast<std::uint64_t>(m.value));
    if (m.name == kMarkCrash) ++crashes;
    if (m.name == kMarkCrashDetected) ++detections;
    if (m.name == kMarkMembership)
      epochs = std::max(epochs, static_cast<std::uint64_t>(m.iter));
    if (m.name == kMarkCrashRecovered) {
      recoveries += 1.0;
      mttr += m.value;
    }
    if (m.name == kMarkCrashLost) lost += m.value;
    if (m.name == kMarkCrashRestored) restored += m.value;
    if (m.name == kMarkMemMachine)
      mem_machine = std::max(mem_machine, m.value);
    if (m.name == kMarkMemExchange)
      mem_exchange = std::max(mem_exchange, m.value);
    if (m.name == kMarkMemSort) mem_sort = std::max(mem_sort, m.value);
  }
  if (crashes > 0) metrics_.add("fault.crashes", crashes);
  if (detections > 0) metrics_.add("fault.crash_detections", detections);
  if (epochs > 0) metrics_.set("fault.membership_epochs",
                               static_cast<double>(epochs));
  if (recoveries > 0.0) {
    metrics_.set("recovery.count", recoveries);
    metrics_.set("recovery.mttr_seconds_total", mttr);
    metrics_.set("recovery.lost_particles", lost);
    metrics_.set("recovery.restored_particles", restored);
  }
  // Per-subsystem memory budget: gauge = max over ranks of each rank's
  // per-run peak. Absent from runs whose driver emits no memory marks.
  if (mem_machine > 0.0) metrics_.set("mem.machine_bytes", mem_machine);
  if (mem_exchange > 0.0) metrics_.set("mem.exchange_bytes", mem_exchange);
  if (mem_sort > 0.0) metrics_.set("mem.sort_bytes", mem_sort);

  metrics_.add("trace.spans", data_.spans.size());
  metrics_.add("trace.flows", data_.flows.size());
  metrics_.add("trace.marks", data_.marks.size());
  metrics_.add("trace.events", events_);
  metrics_.add("trace.dropped_sends", data_.dropped_sends);
  metrics_.add("trace.dropped_recvs", data_.dropped_recvs);
  metrics_.add("trace.dropped_marks", data_.dropped_marks);
  metrics_.add("trace.unreceived_msgs", data_.unreceived_msgs);

  double makespan = 0.0;
  for (double c : data_.final_clocks) makespan = std::max(makespan, c);
  metrics_.set("run.makespan_seconds", makespan);
  metrics_.set("run.ranks", static_cast<double>(data_.nranks));

  if (!timeline_.iters.empty()) {
    metrics_.add("pic.iterations", timeline_.iters.size());
    std::uint64_t redists = 0, moved = 0;
    double imb_max = 0.0;
    for (const IterSample& s : timeline_.iters) {
      if (s.redistributed) redists += 1;
      moved += s.moved;
      imb_max = std::max(imb_max, RedistTimeline::imbalance(s));
    }
    metrics_.add("pic.redistributions", redists);
    metrics_.add("pic.particles_moved", moved);
    metrics_.set("pic.imbalance_max", imb_max);
  }
}

double RedistTimeline::imbalance(const IterSample& s) {
  if (s.particles.empty()) return 0.0;
  std::uint64_t total = 0, mx = 0;
  for (std::uint64_t p : s.particles) {
    total += p;
    mx = std::max(mx, p);
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(s.particles.size());
  return static_cast<double>(mx) / mean;
}

std::string RedistTimeline::to_csv() const {
  std::string out =
      "iter,vtime,loop_seconds,redistributed,redist_seconds,moved,"
      "violation,recovered,imbalance";
  for (int r = 0; r < nranks; ++r) {
    out += ",p";
    append_num(out, static_cast<std::int64_t>(r));
  }
  out += '\n';
  for (const IterSample& s : iters) {
    append_num(out, s.iter);
    out += ',';
    append_num(out, s.vtime);
    out += ',';
    append_num(out, s.loop_seconds);
    out += ',';
    out += s.redistributed ? '1' : '0';
    out += ',';
    append_num(out, s.redist_seconds);
    out += ',';
    append_num(out, s.moved);
    out += ',';
    out += s.violation ? '1' : '0';
    out += ',';
    out += s.recovered ? '1' : '0';
    out += ',';
    append_num(out, imbalance(s));
    for (std::uint64_t p : s.particles) {
      out += ',';
      append_num(out, p);
    }
    out += '\n';
  }
  return out;
}

const char* trace_env_path() { return env_path("PICPAR_TRACE"); }
const char* trace_metrics_env_path() {
  return env_path("PICPAR_TRACE_METRICS");
}

}  // namespace picpar::trace
