#include "trace/tracer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/env.hpp"
#include "util/sparse_rank.hpp"
#include "util/wall_clock.hpp"

namespace picpar::trace {

using detail::append_num;

double Tracer::wall_us() const {
  return static_cast<double>(util::wall_clock() - wall_base_ns_) * 1e-3;
}

void Tracer::on_run_start(int nranks) {
  nranks_ = nranks;
  bufs_.assign(static_cast<std::size_t>(nranks), RankBuf{});
  wall_base_ns_ = util::wall_clock();
  data_ = TraceData{};
  timeline_ = RedistTimeline{};
  metrics_.clear();
  events_ = 0;
}

void Tracer::on_send(sim::Message& m, const sim::SendEvent& e) {
  RankBuf& b = bufs_[static_cast<std::size_t>(e.src)];
  b.events += 1;
  if (!opt_.flows) return;
  if (b.sends.size() >= opt_.max_sends_per_rank) {
    b.dropped_sends += 1;
    return;
  }
  SendRec rec;
  rec.dst = e.dst;
  rec.tag = e.tag;
  rec.seq = m.seq;
  rec.bytes = e.bytes;
  rec.phase = e.phase;
  rec.vtime = e.vtime;
  rec.collective = e.collective_depth > 0;
  b.sends.push_back(rec);
}

void Tracer::on_recv(const sim::Message& m, const sim::RecvEvent& e,
                     const std::deque<sim::Message>& mailbox) {
  // The mailbox snapshot is schedule-dependent with several workers;
  // nothing recorded here may derive from it.
  (void)mailbox;
  RankBuf& b = bufs_[static_cast<std::size_t>(e.rank)];
  b.events += 1;
  if (!opt_.flows) return;
  if (b.recvs.size() >= opt_.max_recvs_per_rank) {
    b.dropped_recvs += 1;
    return;
  }
  RecvRec rec;
  rec.src = m.src;
  rec.seq = m.seq;
  rec.phase = e.phase;
  rec.vtime = e.vtime;
  b.recvs.push_back(rec);
}

void Tracer::on_phase(const sim::PhaseEvent& e) {
  RankBuf& b = bufs_[static_cast<std::size_t>(e.rank)];
  b.events += 1;
  const double w = wall_us();
  Span s;
  s.rank = e.rank;
  s.phase = b.cur_phase;
  s.t0 = b.cur_t0;
  s.t1 = e.vtime;
  s.w0 = b.cur_w0;
  s.w1 = w;
  b.spans.push_back(s);
  b.cur_phase = e.to;
  b.cur_t0 = e.vtime;
  b.cur_w0 = w;
}

void Tracer::on_mark(const sim::MarkEvent& e) {
  RankBuf& b = bufs_[static_cast<std::size_t>(e.rank)];
  b.events += 1;
  if (b.marks.size() >= opt_.max_marks_per_rank) {
    b.dropped_marks += 1;
    return;
  }
  MarkRec rec;
  rec.name = e.name;
  rec.phase = e.phase;
  rec.vtime = e.vtime;
  rec.iter = e.iter;
  rec.value = e.value;
  b.marks.push_back(std::move(rec));
}

void Tracer::on_run_end(
    const std::vector<const std::deque<sim::Message>*>& mailboxes,
    const std::vector<double>& final_clocks) {
  // Quiescence: all ranks done, per-rank buffers stable. Merge in rank
  // order so every derived artifact is schedule-independent.
  const double w_end = wall_us();
  data_ = TraceData{};
  data_.nranks = nranks_;
  data_.final_clocks = final_clocks;

  for (int r = 0; r < nranks_; ++r) {
    RankBuf& b = bufs_[static_cast<std::size_t>(r)];
    Span tail;
    tail.rank = r;
    tail.phase = b.cur_phase;
    tail.t0 = b.cur_t0;
    tail.t1 = final_clocks[static_cast<std::size_t>(r)];
    tail.w0 = b.cur_w0;
    tail.w1 = w_end;
    b.spans.push_back(tail);
    data_.spans.insert(data_.spans.end(), b.spans.begin(), b.spans.end());

    for (auto& m : b.marks) {
      Mark out;
      out.rank = r;
      out.name = std::move(m.name);
      out.phase = m.phase;
      out.vtime = m.vtime;
      out.iter = m.iter;
      out.value = m.value;
      data_.marks.push_back(std::move(out));
    }
    data_.dropped_sends += b.dropped_sends;
    data_.dropped_recvs += b.dropped_recvs;
    data_.dropped_marks += b.dropped_marks;
    events_ += b.events;
  }
  for (const auto* box : mailboxes)
    data_.unreceived_msgs += box->size();

  build_flows();
  build_timeline();
  build_metrics();

  bufs_.clear();
}

void Tracer::build_flows() {
  if (!opt_.flows) return;
  // A link's sends are recorded in seq order (per-link seqs are dense and
  // a rank's drops are a suffix of its stream), so index == seq. Links are
  // sparse in the destinations a sender actually touched — a neighbor-local
  // workload at p ranks touches O(neighbors) peers, so a dense p x p table
  // here would be the tracer's own O(p^2) blowup.
  std::vector<util::SparseRankMap<std::vector<const SendRec*>>> by_src(
      static_cast<std::size_t>(nranks_));
  for (int s = 0; s < nranks_; ++s)
    for (const SendRec& rec : bufs_[static_cast<std::size_t>(s)].sends)
      by_src[static_cast<std::size_t>(s)].ref(rec.dst).push_back(&rec);
  for (int r = 0; r < nranks_; ++r) {
    for (const RecvRec& rec : bufs_[static_cast<std::size_t>(r)].recvs) {
      const auto* link = by_src[static_cast<std::size_t>(rec.src)].find(r);
      if (!link || rec.seq >= link->size())
        continue;  // send record was dropped
      const SendRec& send = *(*link)[rec.seq];
      Flow f;
      f.src = rec.src;
      f.dst = r;
      f.tag = send.tag;
      f.seq = rec.seq;
      f.bytes = send.bytes;
      f.send_phase = send.phase;
      f.recv_phase = rec.phase;
      f.t_send = send.vtime;
      f.t_recv = rec.vtime;
      f.collective = send.collective;
      data_.flows.push_back(f);
    }
  }
}

void Tracer::build_timeline() {
  timeline_ = RedistTimeline{};
  timeline_.nranks = nranks_;
  auto sample = [&](std::int64_t iter) -> IterSample& {
    const auto want = static_cast<std::size_t>(iter) + 1;
    if (timeline_.iters.size() < want) {
      const std::size_t from = timeline_.iters.size();
      timeline_.iters.resize(want);
      for (std::size_t i = from; i < want; ++i) {
        timeline_.iters[i].iter = static_cast<std::int64_t>(i);
        timeline_.iters[i].particles.assign(
            static_cast<std::size_t>(nranks_), 0);
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

void Tracer::build_metrics() {
  for (const Span& s : data_.spans) {
    const double us = (s.t1 - s.t0) * 1e6;
    metrics_.observe(std::string("phase.") + sim::phase_name(s.phase) +
                         ".span_us",
                     static_cast<std::uint64_t>(std::llround(us)));
  }
  if (opt_.flows) {
    for (int r = 0; r < nranks_; ++r) {
      for (const SendRec& rec : bufs_[static_cast<std::size_t>(r)].sends) {
        const std::string p = sim::phase_name(rec.phase);
        metrics_.add("phase." + p + ".msgs_sent");
        metrics_.add("phase." + p + ".bytes_sent", rec.bytes);
        metrics_.observe("msg.bytes", rec.bytes);
      }
    }
    for (const Flow& f : data_.flows) {
      const std::string p = sim::phase_name(f.recv_phase);
      metrics_.add("phase." + p + ".msgs_recv");
      metrics_.add("phase." + p + ".bytes_recv", f.bytes);
    }
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
  metrics_.set("run.ranks", static_cast<double>(nranks_));

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
