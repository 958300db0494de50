#include "analysis/analyzer.hpp"

#include <algorithm>
#include <sstream>

namespace picpar::analysis {

using sim::kAnySource;
using sim::kAnyTag;
using sim::Message;
using sim::Phase;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || src == want_src) &&
         (want_tag == kAnyTag || tag == want_tag);
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

void Analyzer::on_run_start(int nranks) {
  nranks_ = nranks;
  clocks_.assign(static_cast<std::size_t>(nranks), VectorClock(nranks));
  rank_.assign(static_cast<std::size_t>(nranks), RankBuffer{});
  for (auto& rb : rank_) rb.fp = kFnvOffset;
  events_ = 0;
  any_consume_overflow_ = false;
  // Findings survive on purpose: a Machine may run several programs and the
  // caller reads accumulated findings at the end (clear_findings() resets).
}

void Analyzer::mix(int rank, std::uint64_t value) {
  auto& h = rank_[static_cast<std::size_t>(rank)].fp;
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t Analyzer::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  for (const auto& rb : rank_) {
    for (int b = 0; b < 8; ++b) {
      h ^= (rb.fp >> (8 * b)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
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

void Analyzer::on_send(Message& m, const sim::SendEvent& e) {
  // Runs on the sender's worker with no lock held (build_send runs outside
  // the engine mutex): only rank e.src state may be touched here.
  // Cross-rank checks are deferred to on_run_end.
  auto& clk = clocks_[static_cast<std::size_t>(e.src)];
  clk.tick(e.src);
  m.vclock = clk.components();

  auto& buf = rank_[static_cast<std::size_t>(e.src)];
  ++buf.events;
  mix(e.src, 0xA11CE5EDULL);
  mix(e.src, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.dst))
              << 32) |
                 static_cast<std::uint32_t>(e.tag));
  mix(e.src, static_cast<std::uint64_t>(e.bytes));
  mix(e.src, static_cast<std::uint64_t>(static_cast<int>(e.phase)));
  mix(e.src, clk.hash());

  // Tag-space violation: user traffic on a reserved negative tag.
  if (e.collective_depth == 0 && e.tag < 0) {
    Finding f;
    f.kind = FindingKind::kTagViolation;
    f.rank = e.src;
    f.src = e.src;
    f.tag = e.tag;
    f.phase = e.phase;
    f.vtime = e.vtime;
    f.clocks = clk.str();
    std::ostringstream os;
    os << "user send " << e.src << " -> " << e.dst << " uses reserved tag "
       << e.tag << " (phase " << sim::phase_name(e.phase)
       << "); it can match collective-internal receives";
    f.detail = os.str();
    buf.online.push_back(std::move(f));
  }
}

void Analyzer::on_recv(const Message& m, const sim::RecvEvent& e,
                       const std::deque<Message>& mailbox) {
  // The mailbox snapshot is wall-clock-schedule-dependent with several
  // workers (sends from running ranks enqueue at arbitrary real times), so
  // no finding may be derived from it; race candidates come
  // from the consume log + final mailboxes at on_run_end instead.
  (void)mailbox;
  auto& clk = clocks_[static_cast<std::size_t>(e.rank)];
  if (!m.vclock.empty()) clk.merge(m.vclock);
  clk.tick(e.rank);

  auto& buf = rank_[static_cast<std::size_t>(e.rank)];
  ++buf.events;
  mix(e.rank, 0x5ECE15EDULL);
  mix(e.rank, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.src))
               << 32) |
                  static_cast<std::uint32_t>(m.tag));
  mix(e.rank, static_cast<std::uint64_t>(m.bytes()));
  mix(e.rank, static_cast<std::uint64_t>(static_cast<int>(e.phase)));
  mix(e.rank, clk.hash());

  // Phase attribution: sender charged this traffic to one phase, the
  // receiver is accounting it under another.
  if (m.sent_phase != e.phase) {
    Finding f;
    f.kind = FindingKind::kPhaseMismatch;
    f.rank = e.rank;
    f.src = m.src;
    f.tag = m.tag;
    f.phase = e.phase;
    f.other_phase = m.sent_phase;
    f.vtime = e.vtime;
    f.clocks = clk.str();
    std::ostringstream os;
    os << "message " << m.src << " -> " << e.rank << " tag " << m.tag
       << " sent in phase " << sim::phase_name(m.sent_phase)
       << " but received in phase " << sim::phase_name(e.phase)
       << "; per-phase traffic books disagree";
    f.detail = os.str();
    buf.online.push_back(std::move(f));
  }

  const bool user_code = e.collective_depth == 0;

  // Tag space on the receive side, user code only.
  if (user_code && m.tag < 0) {
    Finding f;
    f.kind = FindingKind::kTagViolation;
    f.rank = e.rank;
    f.src = m.src;
    f.tag = m.tag;
    f.phase = e.phase;
    f.vtime = e.vtime;
    f.clocks = clk.str();
    std::ostringstream os;
    os << "user receive on rank " << e.rank << " (want src=" << e.want_src
       << ", tag=" << e.want_tag << ") matched reserved-tag " << m.tag
       << " traffic from " << m.src << " — collective message stolen";
    f.detail = os.str();
    buf.online.push_back(std::move(f));
  }

  // Consume log: every delivery after the first remembered receive is a
  // potential deferred-check candidate for the receives before it.
  const std::uint64_t idx = buf.consume_count++;
  if (buf.gate_open) {
    if (buf.consumed.size() < opt_.consume_log)
      buf.consumed.push_back(Consumed{idx, m.src, m.tag, m.epoch, m.vclock});
    else
      buf.consume_overflow = true;
  }

  // Remember receives that need the deferred checks. The gate opens at the
  // first one: earlier deliveries can never be candidates (candidates are
  // consumed strictly after the receive that races with them).
  const bool wildcard = e.want_src == kAnySource || e.want_tag == kAnyTag;
  const bool race_check = wildcard && user_code && !e.order_insensitive;
  const bool reserved_check =
      user_code && e.want_tag == kAnyTag && m.tag >= 0;
  if ((race_check || reserved_check) &&
      buf.recvs.size() < opt_.recv_history) {
    buf.gate_open = true;
    PendingRecv w;
    w.consume_index = idx;
    w.want_src = e.want_src;
    w.want_tag = e.want_tag;
    w.matched_src = m.src;
    w.matched_tag = m.tag;
    w.fp = e.fp_payload;
    w.race_check = race_check;
    w.reserved_check = reserved_check;
    w.epoch = m.epoch;
    w.phase = e.phase;
    w.vtime = e.vtime;
    w.matched_vc = m.vclock;
    w.completion = clk;
    buf.recvs.push_back(std::move(w));
  }
}

void Analyzer::run_deferred_checks(int rank,
                                   const std::deque<Message>& leftover) {
  auto& buf = rank_[static_cast<std::size_t>(rank)];
  if (buf.recvs.empty()) return;

  // Never-consumed messages are candidates too. Their physical queue order
  // is schedule-dependent, but the *set* is not: sort by the machine's
  // deterministic matching key so the merge is mode-independent.
  std::vector<const Message*> rest;
  rest.reserve(leftover.size());
  for (const auto& pm : leftover) rest.push_back(&pm);
  std::sort(rest.begin(), rest.end(), [](const Message* a, const Message* b) {
    if (a->arrival != b->arrival) return a->arrival < b->arrival;
    if (a->src != b->src) return a->src < b->src;
    if (a->seq != b->seq) return a->seq < b->seq;
    return static_cast<int>(a->dup) < static_cast<int>(b->dup);
  });

  for (const auto& w : buf.recvs) {
    bool reserved_done = !w.reserved_check;
    const VectorClock matched(w.matched_vc);
    // Candidates, in deterministic order: messages consumed after this
    // receive, then the sorted leftovers.
    const auto consider = [&](int src, int tag, int epoch,
                              const std::vector<std::uint64_t>& vc) {
      // Traffic from a different membership epoch can never have raced with
      // this receive: the machine purges pre-agreement messages at the
      // epoch boundary and crashed senders stop sending, so cross-epoch
      // pairs are ordered by the membership barrier itself. Without this
      // filter a shrink-to-survivors recovery would report false races
      // between a rank's pre-crash traffic and post-recovery receives.
      if (epoch != w.epoch) return;
      if (w.race_check && matches(w.want_src, w.want_tag, src, tag) &&
          !(src == w.matched_src && tag == w.matched_tag) && !vc.empty()) {
        const VectorClock b(vc);
        if (!w.matched_vc.empty() && matched.concurrent(b)) {
          Finding f;
          f.kind = w.fp ? FindingKind::kReductionOrder
                        : FindingKind::kMessageRace;
          f.rank = rank;
          f.src = w.matched_src;
          f.other_src = src;
          f.tag = w.matched_tag;
          f.phase = w.phase;
          f.vtime = w.vtime;
          f.clocks = "matched " + matched.str() + " vs pending " + b.str();
          std::ostringstream os;
          os << "wildcard receive on rank " << rank << " (want src="
             << w.want_src << ", tag=" << w.want_tag << ") matched src="
             << w.matched_src << " tag=" << w.matched_tag
             << " while concurrent src=" << src << " tag=" << tag
             << " was pending; either order is possible";
          if (w.fp)
            os << " — floating-point operand order is not "
                  "happens-before-fixed";
          f.detail = os.str();
          add_finding(std::move(f));
        } else if (w.completion.concurrent(b)) {
          // The send is concurrent with the *completion* of the receive
          // (it may have happened after the match, wall-clock-wise): the
          // match could still have gone either way.
          Finding f;
          f.kind = w.fp ? FindingKind::kReductionOrder
                        : FindingKind::kMessageRace;
          f.rank = rank;
          f.src = w.matched_src;
          f.other_src = src;
          f.tag = tag;
          f.phase = w.phase;
          f.vtime = w.vtime;
          f.clocks = "recv " + w.completion.str() + " vs send " + b.str();
          std::ostringstream os;
          os << "send " << src << " -> " << rank << " tag " << tag
             << " is concurrent with a completed wildcard receive (want src="
             << w.want_src << ", tag=" << w.want_tag << ") that matched src="
             << w.matched_src << " tag=" << w.matched_tag
             << "; either message could have matched first";
          if (w.fp)
            os << " — floating-point operand order is not "
                  "happens-before-fixed";
          f.detail = os.str();
          add_finding(std::move(f));
        }
      }
      if (!reserved_done && tag < 0 &&
          (w.want_src == kAnySource || src == w.want_src)) {
        // Causally-later reserved traffic (e.g. a collective the receiver
        // itself entered afterwards) cannot have been pending at the
        // receive; only unordered reserved traffic is stealable.
        const VectorClock b(vc);
        if (vc.empty() || !w.completion.happens_before(b)) {
          reserved_done = true;
          Finding f;
          f.kind = FindingKind::kTagViolation;
          f.rank = rank;
          f.src = src;
          f.tag = tag;
          f.phase = w.phase;
          f.vtime = w.vtime;
          f.clocks = w.completion.str();
          std::ostringstream os;
          os << "wildcard-tag user receive on rank " << rank
             << " posted while reserved-tag " << tag << " traffic from "
             << src << " is pending — it can steal collective traffic";
          f.detail = os.str();
          add_finding(std::move(f));
        }
      }
    };

    for (const auto& c : buf.consumed) {
      if (c.index <= w.consume_index) continue;
      consider(c.src, c.tag, c.epoch, c.vclock);
    }
    for (const Message* pm : rest)
      consider(pm->src, pm->tag, pm->epoch, pm->vclock);
  }
}

void Analyzer::on_run_end(
    const std::vector<const std::deque<Message>*>& mailboxes,
    const std::vector<double>& final_clocks) {
  (void)final_clocks;  // fingerprints cover clocks via event vtimes already
  // Quiescence: every rank is done, per-rank buffers are stable, and the
  // final mailboxes hold the never-consumed messages. Merge in rank order
  // so findings, counts, and the report are deterministic — and identical
  // at every worker count.
  events_ = 0;
  static const std::deque<Message> kEmpty;
  for (int r = 0; r < nranks_; ++r) {
    auto& buf = rank_[static_cast<std::size_t>(r)];
    events_ += buf.events;
    any_consume_overflow_ = any_consume_overflow_ || buf.consume_overflow;
    for (auto& f : buf.online) add_finding(std::move(f));
    buf.online.clear();
    const std::deque<Message>* box =
        static_cast<std::size_t>(r) < mailboxes.size()
            ? mailboxes[static_cast<std::size_t>(r)]
            : &kEmpty;
    run_deferred_checks(r, box ? *box : kEmpty);
  }
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
  if (any_consume_overflow_)
    os << "  (consume log capped at " << opt_.consume_log
       << " messages/rank; some deferred checks were skipped)\n";
  return os.str();
}

std::size_t Analyzer::rank_memory_bytes(int rank) const {
  const auto idx = static_cast<std::size_t>(rank);
  if (idx >= rank_.size()) return 0;
  const RankBuffer& rb = rank_[idx];
  // Capacities, not sizes — this is what the rank's budget pays for.
  std::size_t bytes =
      clocks_[idx].components().capacity() * sizeof(std::uint64_t);
  bytes += rb.online.capacity() * sizeof(Finding);
  for (const Finding& f : rb.online)
    bytes += f.clocks.capacity() + f.detail.capacity();
  bytes += rb.recvs.capacity() * sizeof(PendingRecv);
  for (const PendingRecv& r : rb.recvs)
    bytes += r.matched_vc.capacity() * sizeof(std::uint64_t) +
             r.completion.components().capacity() * sizeof(std::uint64_t);
  bytes += rb.consumed.capacity() * sizeof(Consumed);
  for (const Consumed& c : rb.consumed)
    bytes += c.vclock.capacity() * sizeof(std::uint64_t);
  return bytes;
}

std::size_t Analyzer::memory_bytes() const {
  std::size_t bytes = 0;
  for (int r = 0; r < nranks_; ++r) bytes += rank_memory_bytes(r);
  bytes += findings_.capacity() * sizeof(Finding);
  for (const Finding& f : findings_)
    bytes += f.clocks.capacity() + f.detail.capacity();
  return bytes;
}

}  // namespace picpar::analysis
