#include "analysis/analyzer.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/vector_clock.hpp"

namespace picpar::analysis {

using sim::kAnySource;
using sim::kAnyTag;
using trace::RecordEvent;
using trace::RunRecord;
using Kind = RecordEvent::Kind;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
/// Wildcard receives remembered per rank per run for the deferred checks;
/// receives past it are not analyzed (counts unaffected).
constexpr std::size_t kRecvHistory = 512;

bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || src == want_src) &&
         (want_tag == kAnyTag || tag == want_tag);
}

/// Two 32-bit fields as one fingerprint word.
std::uint64_t word(int hi, int lo) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32) |
         static_cast<std::uint32_t>(lo);
}

/// A remembered wildcard receive awaiting the deferred (run-end) checks.
struct PendingRecv {
  std::size_t index = 0;        ///< its event's position in the rank's events
  bool race_check = false;      ///< eligible for race / reduction-order
  bool reserved_check = false;  ///< wildcard-tag pending-reserved check
  VectorClock matched;          ///< the matched message's send clock
  VectorClock completion;       ///< receiver clock at completion
};

/// One rank's side of a pass, in the rank's program order.
struct RankPass {
  VectorClock clock;
  std::size_t next = 0;  ///< first event not yet processed
  std::uint64_t fp = kFnvOffset;
  /// A remembered receive has been processed: later receives keep their
  /// send clocks for the deferred checks.
  bool gate_open = false;
  std::vector<Finding> online;  ///< rank-local detections, program order
  std::vector<PendingRecv> recvs;
  /// (src, seq) of the messages left in the final mailbox, sorted: a
  /// received message that shares one (a duplicated delivery's original)
  /// keeps its send clock for the deferred checks.
  std::vector<std::pair<int, std::uint64_t>> leftover_keys;
};

/// One run's happens-before pass over a record: the vector clocks, from
/// program order plus the matched (src, dst, seq) edges, and the findings
/// detected against them.
class Pass {
public:
  explicit Pass(const RunRecord& record);

  /// `rank`'s findings in merge order: its online detections in program
  /// order, then its deferred ones.
  std::vector<Finding> findings(int rank) const;
  std::uint64_t fingerprint() const;
  std::uint64_t events() const { return events_; }
  /// Bytes of clocks, remembered receives and online findings the pass
  /// held at its peak.
  std::size_t peak_bytes() const;

private:
  /// A send event: (src, index in events(src)).
  using SendId = std::pair<int, std::size_t>;
  static constexpr SendId kNoSend{-1, 0};

  /// Process `rank`'s events until a receive waits for a send not yet
  /// processed; queue the ranks its sends release.
  void advance(int rank, std::deque<int>& ready);
  void on_send(int rank, const RecordEvent& e);
  void on_recv(int rank, const RecordEvent& e, const SendId& sid);

  const RunRecord& rec_;
  std::vector<RankPass> ranks_;
  std::vector<SendId> waits_;  ///< per rank: the send it waits for
  /// Send clocks from the send until the receive that merges them, and
  /// afterwards while the deferred checks need them.
  std::map<SendId, VectorClock> held_;
  std::size_t peak_held_ = 0;
  std::uint64_t events_ = 0;
};

Pass::Pass(const RunRecord& record) : rec_(record) {
  const int p = record.nranks();
  ranks_.resize(static_cast<std::size_t>(p));
  waits_.assign(static_cast<std::size_t>(p), kNoSend);
  for (int r = 0; r < p; ++r) {
    RankPass& rp = ranks_[static_cast<std::size_t>(r)];
    rp.clock = VectorClock(p);
    for (const trace::Leftover& l : record.leftovers(r))
      rp.leftover_keys.emplace_back(l.src, l.seq);
    std::sort(rp.leftover_keys.begin(), rp.leftover_keys.end());
  }
  // Each rank runs until a receive waits for a send not yet processed, and
  // resumes once that send is. The record holds a real execution, so the
  // pass ends only when every rank is done.
  std::deque<int> ready;
  for (int r = 0; r < p; ++r) ready.push_back(r);
  while (!ready.empty()) {
    const int r = ready.front();
    ready.pop_front();
    advance(r, ready);
  }
  for (int r = 0; r < p; ++r)
    if (ranks_[static_cast<std::size_t>(r)].next < record.events(r).size())
      throw std::logic_error("Analyzer: rank " + std::to_string(r) +
                             " waits for a send the record never reaches");
}

void Pass::advance(int rank, std::deque<int>& ready) {
  RankPass& rp = ranks_[static_cast<std::size_t>(rank)];
  const auto& events = rec_.events(rank);
  for (; rp.next < events.size(); ++rp.next) {
    const RecordEvent& e = events[rp.next];
    if (e.kind == Kind::kSend) {
      on_send(rank, e);
      SendId& w = waits_[static_cast<std::size_t>(e.send.dst)];
      if (w == SendId{rank, rp.next}) {
        ready.push_back(e.send.dst);
        w = kNoSend;
      }
    } else if (e.kind == Kind::kRecv) {
      const SendId sid{e.recv.src,
                       rec_.send_index(e.recv.src, rank, e.recv.seq)};
      if (sid.second == RunRecord::kNoEvent)
        throw std::logic_error("Analyzer: rank " + std::to_string(rank) +
                               " received a message the record never sent");
      if (ranks_[static_cast<std::size_t>(sid.first)].next <= sid.second) {
        waits_[static_cast<std::size_t>(rank)] = sid;
        return;
      }
      on_recv(rank, e, sid);
    }
  }
}

void Pass::on_send(int rank, const RecordEvent& e) {
  RankPass& rp = ranks_[static_cast<std::size_t>(rank)];
  rp.clock.tick(rank);
  ++events_;
  fnv_mix(rp.fp, 0xA11CE5EDULL);
  fnv_mix(rp.fp, word(e.send.dst, e.send.tag));
  fnv_mix(rp.fp, e.send.bytes);
  fnv_mix(rp.fp, static_cast<std::uint64_t>(static_cast<int>(e.phase)));
  fnv_mix(rp.fp, rp.clock.hash());
  held_.emplace(SendId{rank, rp.next}, rp.clock);
  peak_held_ = std::max(peak_held_, held_.size());

  // Tag-space violation: user traffic on a reserved negative tag.
  if (!e.send.collective && e.send.tag < 0) {
    std::ostringstream os;
    os << "user send " << rank << " -> " << e.send.dst
       << " uses reserved tag " << e.send.tag << " (phase "
       << sim::phase_name(e.phase)
       << "); it can match collective-internal receives";
    rp.online.push_back(Finding{
        .kind = FindingKind::kTagViolation, .rank = rank, .src = rank,
        .tag = e.send.tag, .phase = e.phase, .vtime = e.vtime,
        .clocks = rp.clock.str(), .detail = os.str()});
  }
}

void Pass::on_recv(int rank, const RecordEvent& e, const SendId& sid) {
  RankPass& rp = ranks_[static_cast<std::size_t>(rank)];
  const auto sent = held_.find(sid);
  rp.clock.merge(sent->second);
  rp.clock.tick(rank);
  const auto& m = e.recv;
  ++events_;
  fnv_mix(rp.fp, 0x5ECE15EDULL);
  fnv_mix(rp.fp, word(m.src, m.tag));
  fnv_mix(rp.fp, m.bytes);
  fnv_mix(rp.fp, static_cast<std::uint64_t>(static_cast<int>(e.phase)));
  fnv_mix(rp.fp, rp.clock.hash());

  // Phase attribution: sender charged this traffic to one phase, the
  // receiver is accounting it under another.
  const sim::Phase sent_phase = rec_.events(sid.first)[sid.second].phase;
  if (sent_phase != e.phase) {
    std::ostringstream os;
    os << "message " << m.src << " -> " << rank << " tag " << m.tag
       << " sent in phase " << sim::phase_name(sent_phase)
       << " but received in phase " << sim::phase_name(e.phase)
       << "; per-phase traffic books disagree";
    rp.online.push_back(Finding{
        .kind = FindingKind::kPhaseMismatch, .rank = rank, .src = m.src,
        .tag = m.tag, .phase = e.phase, .other_phase = sent_phase,
        .vtime = e.vtime, .clocks = rp.clock.str(), .detail = os.str()});
  }

  // Tag space on the receive side, user code only.
  const bool user_code = !m.collective;
  if (user_code && m.tag < 0) {
    std::ostringstream os;
    os << "user receive on rank " << rank << " (want src=" << m.want_src
       << ", tag=" << m.want_tag << ") matched reserved-tag " << m.tag
       << " traffic from " << m.src << " — collective message stolen";
    rp.online.push_back(Finding{
        .kind = FindingKind::kTagViolation, .rank = rank, .src = m.src,
        .tag = m.tag, .phase = e.phase, .vtime = e.vtime,
        .clocks = rp.clock.str(), .detail = os.str()});
  }

  // Receives consumed after the first remembered one are candidates for
  // its deferred checks, and so are the leftovers: both keep their send
  // clocks. Every other send clock is dropped once merged.
  const bool keep =
      rp.gate_open || std::binary_search(rp.leftover_keys.begin(),
                                         rp.leftover_keys.end(),
                                         std::make_pair(m.src, m.seq));

  // Remember receives that need the deferred checks.
  const bool wildcard = m.want_src == kAnySource || m.want_tag == kAnyTag;
  const bool race_check = wildcard && user_code && !m.order_insensitive;
  const bool reserved_check =
      user_code && m.want_tag == kAnyTag && m.tag >= 0;
  if ((race_check || reserved_check) && rp.recvs.size() < kRecvHistory) {
    rp.gate_open = true;
    rp.recvs.push_back(PendingRecv{rp.next, race_check, reserved_check,
                                   sent->second, rp.clock});
  }
  if (!keep) held_.erase(sent);
}

std::vector<Finding> Pass::findings(int rank) const {
  const RankPass& rp = ranks_[static_cast<std::size_t>(rank)];
  std::vector<Finding> out = rp.online;
  const auto& events = rec_.events(rank);
  for (const PendingRecv& w : rp.recvs) {
    const RecordEvent& at = events[w.index];
    const auto& r = at.recv;
    const char* const fp_note =
        r.fp_payload ? " — floating-point operand order is not "
                       "happens-before-fixed"
                     : "";
    const FindingKind race_kind = r.fp_payload ? FindingKind::kReductionOrder
                                               : FindingKind::kMessageRace;
    bool reserved_done = !w.reserved_check;
    // Candidates, in deterministic order: messages consumed after this
    // receive, then the leftovers in matching order.
    const auto consider = [&](int src, int tag, int epoch,
                              std::uint64_t seq) {
      // Traffic from a different membership epoch can never have raced with
      // this receive: the machine purges pre-agreement messages at the
      // epoch boundary and crashed senders stop sending, so cross-epoch
      // pairs are ordered by the membership barrier itself. Without this
      // filter a shrink-to-survivors recovery would report false races
      // between a rank's pre-crash traffic and post-recovery receives.
      if (epoch != r.epoch) return;
      const bool race = w.race_check &&
                        matches(r.want_src, r.want_tag, src, tag) &&
                        !(src == r.src && tag == r.tag);
      const bool reserved = !reserved_done && tag < 0 &&
                            (r.want_src == kAnySource || src == r.want_src);
      if (!race && !reserved) return;
      const VectorClock& b =
          held_.at(SendId{src, rec_.send_index(src, rank, seq)});
      if (race && w.matched.concurrent(b)) {
        std::ostringstream os;
        os << "wildcard receive on rank " << rank << " (want src="
           << r.want_src << ", tag=" << r.want_tag << ") matched src="
           << r.src << " tag=" << r.tag << " while concurrent src=" << src
           << " tag=" << tag << " was pending; either order is possible"
           << fp_note;
        out.push_back(Finding{
            .kind = race_kind, .rank = rank, .src = r.src, .other_src = src,
            .tag = r.tag, .phase = at.phase, .vtime = at.vtime,
            .clocks = "matched " + w.matched.str() + " vs pending " + b.str(),
            .detail = os.str()});
      } else if (race && w.completion.concurrent(b)) {
        // The send is concurrent with the *completion* of the receive
        // (it may have happened after the match, wall-clock-wise): the
        // match could still have gone either way.
        std::ostringstream os;
        os << "send " << src << " -> " << rank << " tag " << tag
           << " is concurrent with a completed wildcard receive (want src="
           << r.want_src << ", tag=" << r.want_tag << ") that matched src="
           << r.src << " tag=" << r.tag
           << "; either message could have matched first" << fp_note;
        out.push_back(Finding{
            .kind = race_kind, .rank = rank, .src = r.src, .other_src = src,
            .tag = tag, .phase = at.phase, .vtime = at.vtime,
            .clocks = "recv " + w.completion.str() + " vs send " + b.str(),
            .detail = os.str()});
      }
      // Causally-later reserved traffic (e.g. a collective the receiver
      // itself entered afterwards) cannot have been pending at the
      // receive; only unordered reserved traffic is stealable.
      if (reserved && !w.completion.happens_before(b)) {
        reserved_done = true;
        std::ostringstream os;
        os << "wildcard-tag user receive on rank " << rank
           << " posted while reserved-tag " << tag << " traffic from "
           << src << " is pending — it can steal collective traffic";
        out.push_back(Finding{
            .kind = FindingKind::kTagViolation, .rank = rank, .src = src,
            .tag = tag, .phase = at.phase, .vtime = at.vtime,
            .clocks = w.completion.str(), .detail = os.str()});
      }
    };

    for (std::size_t i = w.index + 1; i < events.size(); ++i)
      if (events[i].kind == Kind::kRecv) {
        const auto& c = events[i].recv;
        consider(c.src, c.tag, c.epoch, c.seq);
      }
    for (const trace::Leftover& l : rec_.leftovers(rank))
      consider(l.src, l.tag, l.epoch, l.seq);
  }
  return out;
}

std::uint64_t Pass::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  for (const RankPass& rp : ranks_) fnv_mix(h, rp.fp);
  return h;
}

std::size_t Pass::peak_bytes() const {
  const std::size_t clock =
      static_cast<std::size_t>(rec_.nranks()) * sizeof(std::uint64_t);
  std::size_t bytes = (ranks_.size() + peak_held_) * clock;
  for (const RankPass& rp : ranks_) {
    bytes += rp.recvs.size() * (sizeof(PendingRecv) + 2 * clock);
    for (const Finding& f : rp.online)
      bytes += sizeof(Finding) + f.clocks.capacity() + f.detail.capacity();
  }
  return bytes;
}

}  // namespace

const char* finding_kind_name(FindingKind k) {
  switch (k) {
    case FindingKind::kMessageRace: return "message-race";
    case FindingKind::kTagViolation: return "tag-violation";
    case FindingKind::kPhaseMismatch: return "phase-mismatch";
    case FindingKind::kReductionOrder: return "reduction-order";
  }
  return "?";
}

void Analyzer::analyze(const RunRecord& record) {
  if (!record.complete())
    throw std::logic_error("Analyzer: the record holds no completed run");
  if (const int r = record.first_truncated_rank(); r >= 0)
    throw std::runtime_error(
        "Analyzer: rank " + std::to_string(r) +
        " fired more events than the record's budget of " +
        std::to_string(record.budget()) +
        " per rank; the happens-before order needs every event");
  const Pass pass(record);
  // Merge in rank order so findings, counts, and the report are
  // deterministic — and identical at every worker count. Findings survive
  // from earlier runs on purpose (clear_findings() resets them).
  for (int r = 0; r < record.nranks(); ++r)
    for (Finding& f : pass.findings(r)) add_finding(std::move(f));
  fingerprint_ = pass.fingerprint();
  events_ = pass.events();
  pass_bytes_ = pass.peak_bytes();
}

std::uint64_t Analyzer::total() const {
  std::uint64_t t = 0;
  for (const auto c : counts_) t += c;
  return t;
}

void Analyzer::clear_findings() {
  findings_.clear();
  finding_keys_.clear();
  for (auto& c : counts_) c = 0;
}

void Analyzer::add_finding(Finding f) {
  ++counts_[static_cast<int>(f.kind)];
  std::ostringstream key;
  key << static_cast<int>(f.kind) << ':' << f.rank << ':' << f.src << ':'
      << f.other_src << ':' << f.tag << ':' << static_cast<int>(f.phase)
      << ':' << static_cast<int>(f.other_phase);
  if (!finding_keys_.insert(key.str()).second) return;  // repeat of a known site
  if (findings_.size() >= opt_.max_findings) return;
  findings_.push_back(std::move(f));
}

std::string Analyzer::report() const {
  std::ostringstream os;
  os << "happens-before analysis: " << events_ << " events, " << total()
     << " finding(s)";
  for (int k = 0; k < kNumFindingKinds; ++k)
    if (counts_[k] > 0)
      os << "; " << finding_kind_name(static_cast<FindingKind>(k)) << ": "
         << counts_[k];
  os << '\n';
  for (const auto& f : findings_) {
    os << "  [" << finding_kind_name(f.kind) << "] rank " << f.rank << " @ t="
       << f.vtime << ": " << f.detail << " (clocks " << f.clocks << ")\n";
  }
  if (total() > findings_.size())
    os << "  (" << (total() - findings_.size())
       << " further detection(s) deduplicated or past the cap)\n";
  return os.str();
}

std::size_t Analyzer::memory_bytes() const {
  std::size_t bytes = pass_bytes_ + findings_.capacity() * sizeof(Finding);
  for (const Finding& f : findings_)
    bytes += f.clocks.capacity() + f.detail.capacity();
  return bytes;
}

}  // namespace picpar::analysis
