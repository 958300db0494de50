#include "trace/run_record.hpp"

#include <algorithm>

#include "util/wall_clock.hpp"

namespace picpar::trace {

void RunRecord::on_run_start(int nranks) {
  nranks_ = nranks;
  complete_ = false;
  ranks_.clear();
  ranks_.resize(static_cast<std::size_t>(nranks));
  final_clocks_.clear();
  wall_start_ns_ = util::wall_clock();
  wall_end_ns_ = wall_start_ns_;
}

RecordEvent* RunRecord::next(int rank, RecordEvent::Kind k) {
  Rank& r = ranks_[static_cast<std::size_t>(rank)];
  if (r.events.size() >= budget_) {
    r.dropped[static_cast<std::size_t>(k)] += 1;
    return nullptr;
  }
  RecordEvent& e = r.events.emplace_back();
  e.kind = k;
  return &e;
}

void RunRecord::on_send(sim::Message& m, const sim::SendEvent& e) {
  RecordEvent* ev = next(e.src, RecordEvent::Kind::kSend);
  if (!ev) return;
  ev->phase = e.phase;
  ev->vtime = e.vtime;
  ev->send = {m.seq, e.bytes, e.dst, e.tag, m.epoch, e.collective_depth > 0};
}

void RunRecord::on_recv(const sim::Message& m, const sim::RecvEvent& e,
                        const std::deque<sim::Message>& mailbox) {
  // The mailbox snapshot is schedule-dependent with several workers;
  // nothing recorded here may derive from it.
  (void)mailbox;
  RecordEvent* ev = next(e.rank, RecordEvent::Kind::kRecv);
  if (!ev) return;
  ev->phase = e.phase;
  ev->vtime = e.vtime;
  ev->recv = {m.seq,      m.bytes(),    m.src,
              m.tag,      e.want_src,   e.want_tag,
              m.epoch,    e.fp_payload, e.order_insensitive,
              e.collective_depth > 0};
}

void RunRecord::on_phase(const sim::PhaseEvent& e) {
  RecordEvent* ev = next(e.rank, RecordEvent::Kind::kPhase);
  if (!ev) return;
  ev->phase = e.to;
  ev->vtime = e.vtime;
  ev->change = {e.from, util::wall_clock()};
}

void RunRecord::on_mark(const sim::MarkEvent& e) {
  RecordEvent* ev = next(e.rank, RecordEvent::Kind::kMark);
  if (!ev) return;
  ev->phase = e.phase;
  ev->vtime = e.vtime;
  ev->mark = {e.name, e.iter, e.value};
}

void RunRecord::on_run_end(
    const std::vector<const std::deque<sim::Message>*>& mailboxes,
    const std::vector<double>& final_clocks) {
  // Quiescence: every rank is done and its events are final.
  wall_end_ns_ = util::wall_clock();
  final_clocks_ = final_clocks;
  for (int r = 0; r < nranks_; ++r) {
    Rank& rank = ranks_[static_cast<std::size_t>(r)];
    // The mailbox's physical order is schedule-dependent; the set is not.
    for (const sim::Message& m : *mailboxes[static_cast<std::size_t>(r)])
      rank.leftovers.push_back(
          Leftover{m.src, m.tag, m.seq, m.epoch, m.arrival, m.dup});
    std::sort(rank.leftovers.begin(), rank.leftovers.end(),
              [](const Leftover& a, const Leftover& b) {
                if (a.arrival != b.arrival) return a.arrival < b.arrival;
                if (a.src != b.src) return a.src < b.src;
                if (a.seq != b.seq) return a.seq < b.seq;
                return static_cast<int>(a.dup) < static_cast<int>(b.dup);
              });
    // A link's sends are recorded in seq order (per-link seqs are dense
    // and a rank's unstored events are a suffix), so position == seq.
    // Links are sparse in the destinations a sender touched: a dense p x p
    // table would be the record's own O(p^2) blowup.
    for (std::size_t i = 0; i < rank.events.size(); ++i)
      if (rank.events[i].kind == RecordEvent::Kind::kSend)
        rank.links.ref(rank.events[i].send.dst).push_back(i);
  }
  complete_ = true;
}

int RunRecord::first_truncated_rank() const {
  for (int r = 0; r < nranks_; ++r)
    for (const std::uint64_t d : ranks_[static_cast<std::size_t>(r)].dropped)
      if (d > 0) return r;
  return -1;
}

std::uint64_t RunRecord::total_events() const {
  std::uint64_t n = 0;
  for (const Rank& r : ranks_) {
    n += r.events.size();
    for (const std::uint64_t d : r.dropped) n += d;
  }
  return n;
}

std::size_t RunRecord::send_index(int src, int dst, std::uint64_t seq) const {
  const auto* link = ranks_[static_cast<std::size_t>(src)].links.find(dst);
  if (!link || seq >= link->size()) return kNoEvent;
  const std::size_t i = (*link)[static_cast<std::size_t>(seq)];
  return events(src)[i].send.seq == seq ? i : kNoEvent;
}

}  // namespace picpar::trace
