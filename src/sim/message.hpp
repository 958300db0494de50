// Point-to-point message representation inside the simulated machine.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
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
/// reference-counted, in one heap block that holds the count, the size,
/// the derived-value slot and the bytes. A sender writes the bytes in
/// place once, when the payload is made; after that they are reachable
/// only through const access, so no holder can change what another holder
/// reads. Copying a Payload shares the block — a duplicated delivery, or a
/// broadcast forwarding what it received to its children — and the count
/// is atomic, because ranks on different workers share blocks. A path that
/// needs different bytes (the fault model's bit flip) copies them out
/// first.
class Payload {
public:
  Payload() = default;
  /// `size` bytes, written by fill(std::byte* out) before any other holder
  /// exists.
  template <typename F>
  Payload(std::size_t size, F&& fill) : block_(Block::make(size)) {
    try {
      std::forward<F>(fill)(block_->bytes());
    } catch (...) {
      release();
      throw;
    }
  }
  Payload(const Payload& other) noexcept : block_(other.block_) {
    if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  Payload& operator=(Payload other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~Payload() { release(); }

  std::size_t size() const { return block_ ? block_->size : 0; }
  /// The bytes; read values from them with std::memcpy.
  const std::byte* data() const { return block_ ? block_->bytes() : nullptr; }
  /// A private, writable copy of the bytes.
  std::vector<std::byte> copy() const {
    return std::vector<std::byte>(data(), data() + size());
  }

  /// A value computed from these bytes once per buffer (see OnceValue):
  /// every holder of the buffer gets the same object, which lives as long
  /// as anyone holds it or the buffer.
  template <typename V, typename F>
  std::shared_ptr<const V> derive(F&& make) const {
    if (!block_) throw std::logic_error("Payload::derive: no buffer");
    const V& v = block_->derived.template get<V>(std::forward<F>(make));
    // The block owns v, so the pointer holds a reference to the block.
    return std::shared_ptr<const V>(
        &v, [hold = *this](const V*) mutable { hold = Payload(); });
  }

private:
  struct Block {
    std::atomic<std::size_t> refs{1};
    const std::size_t size;
    OnceValue derived;

    explicit Block(std::size_t n) : size(n) {}
    /// The bytes follow the header in the same allocation.
    std::byte* bytes() {
      return reinterpret_cast<std::byte*>(this) + sizeof(Block);
    }
    static Block* make(std::size_t n) {
      static_assert(alignof(Block) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
      return new (::operator new(sizeof(Block) + n)) Block(n);
    }
  };

  void release() noexcept {
    if (block_ && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      block_->~Block();
      ::operator delete(block_);
    }
    block_ = nullptr;
  }

  Block* block_ = nullptr;
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
