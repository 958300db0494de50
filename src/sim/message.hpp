// Point-to-point message representation inside the simulated machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <typeinfo>
#include <utility>
#include <vector>

#include "sim/comm_stats.hpp"

namespace picpar::sim {

/// Wildcards for Comm::recv matching.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// A value computed from immutable data at most once, by whichever holder
/// asks first (std::call_once); every later request, from any rank or host
/// thread, gets the same object. `make` must be a pure function of that
/// data, so which rank computes it cannot change a result, and must make
/// no Comm call: a fiber that yielded under the once-flag would block the
/// other fibers of its thread.
class OnceValue {
public:
  template <typename V, typename F>
  const V& get(F&& make) const {
    std::call_once(once_, [&] {
      // Caught here so the once-flag always completes; every caller then
      // rethrows the same error below.
      try {
        // new V(prvalue) constructs in place, so V need not be movable.
        value_ = std::shared_ptr<const V>(new V(std::forward<F>(make)()));
      } catch (...) {
        error_ = std::current_exception();
      }
      type_ = &typeid(V);
    });
    if (error_) std::rethrow_exception(error_);
    if (*type_ != typeid(V))
      throw std::logic_error("OnceValue: value was derived as another type");
    return *static_cast<const V*>(value_.get());
  }

private:
  mutable std::once_flag once_;
  mutable std::shared_ptr<const void> value_;
  mutable std::exception_ptr error_;
  mutable const std::type_info* type_ = nullptr;
};

/// The bytes of one message on the simulated wire: immutable and
/// reference-counted. Copying a Payload shares the buffer — a duplicated
/// delivery, or a broadcast forwarding what it received to its children —
/// and the bytes are reachable only through const access, so no holder can
/// change what another holder reads. A path that needs different bytes
/// (the fault model's bit flip) copies them out first.
class Payload {
public:
  Payload() = default;
  /// Takes the bytes over; one allocation holds the reference count, the
  /// byte vector's header and the derived-value slot.
  explicit Payload(std::vector<std::byte> bytes)
      : block_(std::make_shared<const Block>(std::move(bytes))) {}

  std::size_t size() const { return block_ ? block_->bytes.size() : 0; }
  const std::byte* data() const {
    return block_ ? block_->bytes.data() : nullptr;
  }
  /// A private, writable copy of the bytes.
  std::vector<std::byte> copy() const {
    return block_ ? block_->bytes : std::vector<std::byte>{};
  }

  /// A value computed from these bytes once per buffer (see OnceValue):
  /// every holder of the buffer gets the same object, which lives as long
  /// as anyone holds it or the buffer.
  template <typename V, typename F>
  std::shared_ptr<const V> derive(F&& make) const {
    if (!block_) throw std::logic_error("Payload::derive: no buffer");
    const V& v = block_->derived.template get<V>(std::forward<F>(make));
    return std::shared_ptr<const V>(block_, &v);
  }

private:
  struct Block {
    explicit Block(std::vector<std::byte> b) : bytes(std::move(b)) {}
    std::vector<std::byte> bytes;
    OnceValue derived;
  };
  std::shared_ptr<const Block> block_;
};

struct Message {
  int src = 0;
  int dst = 0;
  int tag = 0;
  /// Virtual time at which the message is available at the receiver.
  double arrival = 0.0;
  /// Transport envelope: per-(src, dst)-link sequence number and FNV-1a
  /// payload checksum. The sequence number is always assigned (deterministic
  /// matching orders a link's traffic by it); the checksum is only computed
  /// when a fault model with message faults is active. Envelope fields ride
  /// as struct metadata, so they never change the modeled byte counts or
  /// costs.
  std::uint64_t seq = 0;
  std::uint64_t checksum = 0;
  /// True for the redelivered copy of a duplicated message (fault model).
  /// The copy shares `seq` and the payload buffer with the original;
  /// matching breaks the tie in favor of the original so dedup behavior is
  /// schedule-independent.
  bool dup = false;
  /// Sender's phase when the message was posted; the analysis layer checks
  /// it against the receiver's phase at delivery (metadata, never costed).
  Phase sent_phase = Phase::kOther;
  /// Membership epoch the sender executed in when posting (metadata, never
  /// costed). Survivor mailboxes are purged of pre-agreement epochs after a
  /// membership change, and the analyzer never pairs receives across epochs.
  int epoch = 0;
  /// Sender's vector clock at the send event, stamped by an installed
  /// MachineObserver (see sim/observer.hpp); empty when none is attached.
  /// The send event is identified by (src, vclock[src]).
  std::vector<std::uint64_t> vclock;
  Payload payload;

  std::size_t bytes() const { return payload.size(); }
};

}  // namespace picpar::sim
