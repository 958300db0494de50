// Passive observation hooks for the simulated machine.
//
// A MachineObserver sees every point-to-point event (collectives are built
// from point-to-point messages, so it sees those too) in the exact order
// the deterministic scheduler executes them. A rank's callbacks come from
// one thread at a time, but with several workers (Machine::set_workers)
// ranks of different blocks call back concurrently: an observer keeps
// per-rank state and merges across ranks only at on_run_end, when every
// rank has finished.
//
// The observer may stamp metadata onto an outgoing Message (vclock); the
// machine itself never reads those fields, so an installed observer cannot
// change virtual time, matching, or traffic accounting. With no observer
// installed the hooks cost one pointer test per event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/comm_stats.hpp"
#include "sim/message.hpp"

namespace picpar::sim {

/// Context of one send, captured after the sender was charged.
struct SendEvent {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::size_t bytes = 0;
  Phase phase = Phase::kOther;  ///< sender's phase at the send
  int collective_depth = 0;     ///< >0: issued from inside a collective
  double vtime = 0.0;           ///< sender clock after the send charge
};

/// Context of one completed (matched) receive.
struct RecvEvent {
  int rank = 0;
  int want_src = kAnySource;  ///< posted source pattern
  int want_tag = kAnyTag;     ///< posted tag pattern
  bool fp_payload = false;    ///< receive was typed as floating point
  bool order_insensitive = false;  ///< annotated via Comm::OrderInsensitive
  Phase phase = Phase::kOther;     ///< receiver's phase at the receive
  int collective_depth = 0;
  double vtime = 0.0;  ///< receiver clock after delivery
};

/// A rank switched simulation phase (Comm::set_phase with a new value).
struct PhaseEvent {
  int rank = 0;
  Phase from = Phase::kOther;
  Phase to = Phase::kOther;
  double vtime = 0.0;  ///< rank clock at the switch
};

/// A named instant emitted by the program (Comm::mark) or the transport
/// layer. Marks never touch clocks, matching, or stats — they exist only
/// for observers, and emitting one is a no-op when no observer is set.
struct MarkEvent {
  int rank = 0;
  const char* name = "";  ///< string literal; observers that buffer must copy
  Phase phase = Phase::kOther;  ///< rank's phase when the mark fired
  double vtime = 0.0;           ///< rank clock when the mark fired
  std::int64_t iter = 0;        ///< caller-defined slot (e.g. PIC iteration)
  double value = 0.0;           ///< caller-defined payload
};

class MachineObserver {
public:
  virtual ~MachineObserver() = default;

  /// A run is starting on `nranks` ranks; per-run state should reset here.
  virtual void on_run_start(int nranks) = 0;

  /// `m` is about to be enqueued at the destination. The observer may write
  /// m.vclock; everything else on the message is read-only by convention.
  virtual void on_send(Message& m, const SendEvent& e) = 0;

  /// `m` was matched and removed from the mailbox; `mailbox` holds the
  /// messages still pending at the receiver (candidates the posted receive
  /// could also have matched are a subset of these).
  virtual void on_recv(const Message& m, const RecvEvent& e,
                       const std::deque<Message>& mailbox) = 0;

  /// Rank `e.rank` changed phase. Fires only on an actual change, never for
  /// a redundant set_phase to the current value. Default: no-op.
  virtual void on_phase(const PhaseEvent& e) { (void)e; }

  /// A named instant fired on `e.rank` (see MarkEvent). Default: no-op.
  virtual void on_mark(const MarkEvent& e) { (void)e; }

  /// The run completed normally (all ranks done, no error, no deadlock);
  /// `mailboxes[r]` is rank r's final mailbox — messages sent but never
  /// received — and `final_clocks[r]` its final virtual time. This is the
  /// quiescence point where an observer that buffers per-rank state merges
  /// it in deterministic rank order; the *set* of leftover messages is
  /// schedule-independent even though their physical queue order is not.
  /// Default: no-op.
  virtual void on_run_end(
      const std::vector<const std::deque<Message>*>& mailboxes,
      const std::vector<double>& final_clocks) {
    (void)mailboxes;
    (void)final_clocks;
  }
};

/// Fans every callback out to several observers in registration order, so
/// more than one (e.g. the analyzer plus the tracer) can watch one run
/// through the machine's single observer slot.
class ObserverChain final : public MachineObserver {
public:
  void add(MachineObserver* obs) {
    if (obs) observers_.push_back(obs);
  }
  bool empty() const { return observers_.empty(); }
  std::size_t size() const { return observers_.size(); }

  void on_run_start(int nranks) override {
    for (auto* o : observers_) o->on_run_start(nranks);
  }
  void on_send(Message& m, const SendEvent& e) override {
    for (auto* o : observers_) o->on_send(m, e);
  }
  void on_recv(const Message& m, const RecvEvent& e,
               const std::deque<Message>& mailbox) override {
    for (auto* o : observers_) o->on_recv(m, e, mailbox);
  }
  void on_phase(const PhaseEvent& e) override {
    for (auto* o : observers_) o->on_phase(e);
  }
  void on_mark(const MarkEvent& e) override {
    for (auto* o : observers_) o->on_mark(e);
  }
  void on_run_end(const std::vector<const std::deque<Message>*>& mailboxes,
                  const std::vector<double>& final_clocks) override {
    for (auto* o : observers_) o->on_run_end(mailboxes, final_clocks);
  }

private:
  std::vector<MachineObserver*> observers_;
};

}  // namespace picpar::sim
