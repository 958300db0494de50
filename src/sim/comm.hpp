// Per-rank communication handle — the MPI-like API simulated programs use.
//
// Point-to-point sends are buffered and never block; receives block until a
// matching message exists. Collectives are built from point-to-point
// messages (binomial trees and rings), so their virtual-time cost emerges
// from the same two-level model as everything else.
//
// Tag space: user code must use tags >= 0. Negative tags are reserved for
// collectives so they never match user receives. This is a checked
// invariant, not a convention: sends and explicit-tag receives issued
// outside a collective with a negative tag throw std::invalid_argument
// (see Machine::set_strict_tags to trade the throw for analyzer findings).
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/machine.hpp"

namespace picpar::sim {

/// One allgatherv's result: every rank's block, concatenated in rank order.
/// Comm::allgatherv_shared hands the same immutable object to every rank of
/// the collective, and derive() computes a value from it once for all of
/// them — on the CM-5 the control network left one identical copy on each
/// processor; here one host object stands for all p.
template <typename T>
class Gathered {
public:
  Gathered(std::vector<T> values, std::vector<std::size_t> offsets)
      : values_(std::move(values)), offsets_(std::move(offsets)) {}

  const std::vector<T>& values() const { return values_; }
  /// offsets()[r] is the index of rank r's first element (p entries).
  const std::vector<std::size_t>& offsets() const { return offsets_; }

  /// A value computed from the gathered data by the first rank that asks;
  /// see OnceValue for the rules `make` follows.
  template <typename V, typename F>
  const V& derive(F&& make) const {
    return derived_.template get<V>(std::forward<F>(make));
  }

private:
  std::vector<T> values_;
  std::vector<std::size_t> offsets_;
  OnceValue derived_;
};

class Comm {
public:
  Comm(Machine* machine, int rank)
      : machine_(machine), rank_(rank), grank_(rank),
        gsize_(machine->size()) {}

  /// Rank and size are *group-relative*: initially the group is the whole
  /// machine (identity), and after agree_on_membership() it shrinks to the
  /// survivors — rank() is this rank's index among them, and every src/dst
  /// passed to point-to-point calls or assumed by collectives is a group
  /// index. world_rank() is the physical rank, stable across shrinks.
  int rank() const { return grank_; }
  int size() const { return gsize_; }
  int world_rank() const { return rank_; }
  const CostModel& cost() const { return machine_->cost(); }

  /// Physical ranks of the current group, ascending (empty vector = the
  /// identity group over the whole machine, materialized on demand).
  std::vector<int> group() const {
    if (!group_.empty()) return group_;
    std::vector<int> g(static_cast<std::size_t>(gsize_));
    for (int i = 0; i < gsize_; ++i) g[static_cast<std::size_t>(i)] = i;
    return g;
  }

  /// Collective over all live ranks: block until every survivor has entered,
  /// then shrink this Comm's group to the agreed survivor set. Returns the
  /// identical view every survivor receives at the identical virtual time.
  /// Typically called from a PeerFailedError handler to start recovery.
  MembershipView agree_on_membership() {
    const MembershipView v = machine_->do_agree(rank_);
    group_ = v.survivors;
    gsize_ = static_cast<int>(group_.size());
    grank_ = gidx(rank_);
    return v;
  }

  /// Current virtual time of this rank, in seconds.
  double clock() const { return machine_->ranks_[rank_].clock; }

  /// Charge local computation time directly.
  void charge(double seconds) { machine_->charge(rank_, seconds, true); }
  /// Charge n abstract operations at delta each.
  void charge_ops(std::uint64_t n) {
    charge(static_cast<double>(n) * cost().delta);
  }

  /// Attribute subsequent traffic and charges to a PIC phase. An attached
  /// observer sees each actual change as a PhaseEvent.
  void set_phase(Phase p) { machine_->note_phase(rank_, p); }
  Phase phase() const { return machine_->ranks_[rank_].phase; }

  /// Emit a named instant into an attached observer's event stream (e.g. a
  /// redistribution decision, a per-iteration sample). Free when no
  /// observer is installed; never affects clocks, matching, or stats, so a
  /// program may mark unconditionally. `name` must be a string literal (or
  /// otherwise outlive the callback); `iter` and `value` are caller-defined.
  void mark(const char* name, std::int64_t iter = 0, double value = 0.0) {
    machine_->note_mark(rank_, name, iter, value);
  }

  const CommStats& stats() const { return machine_->ranks_[rank_].stats; }

  /// Bytes of per-peer transport state (sequence counters, dedup sets, link
  /// counters, crash acks) the machine holds for this rank. Sparse in the
  /// peers actually touched and identical at every worker count, so
  /// programs may fold it into exported metrics.
  std::size_t memory_bytes() const {
    return machine_->rank_transport_bytes(rank_);
  }
  /// Distinct peers with transport state on this rank (what the sparse
  /// tables are bounded by, independent of world size).
  std::size_t transport_peers() const {
    return machine_->rank_transport_peers(rank_);
  }

  /// RAII annotation for user code: wildcard receives inside the scope are
  /// declared order-insensitive — the caller keys results by source (or
  /// accumulates commutatively), so delivery order cannot change the
  /// outcome. The happens-before analyzer suppresses message-race and
  /// reduction-order findings for receives completed under this scope;
  /// everything else (tag checks, phase attribution, clocks) still applies.
  class OrderInsensitive {
  public:
    explicit OrderInsensitive(Comm& c) : comm_(c) {
      ++comm_.machine_->ranks_[comm_.rank_].unordered_depth;
    }
    ~OrderInsensitive() {
      --comm_.machine_->ranks_[comm_.rank_].unordered_depth;
    }
    OrderInsensitive(const OrderInsensitive&) = delete;
    OrderInsensitive& operator=(const OrderInsensitive&) = delete;

  private:
    Comm& comm_;
  };

  /// Fault model active on the underlying machine (disabled by default).
  /// Drivers use it to inject host-side faults into their own state and to
  /// read per-rank injection counters.
  FaultModel& fault_model() { return machine_->faults_; }
  const FaultModel& fault_model() const { return machine_->faults_; }

  // ---- point to point (src/dst are group indices) ----

  /// Sends a payload as is; forwarding a received payload shares its
  /// buffer instead of copying it.
  void send_bytes(int dst, int tag, Payload payload) {
    machine_->do_send(rank_, phys(dst), tag, std::move(payload));
  }

  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    send_bytes(dst, tag, encode(data));
  }

  template <typename T>
  void send(int dst, int tag, const std::vector<T>& data) {
    send(dst, tag, std::span<const T>(data));
  }

  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    send(dst, tag, std::span<const T>(&v, 1));
  }

  /// Blocking receive; returns the raw message (src/tag/payload) with the
  /// source translated to a group index.
  Message recv_msg(int src = kAnySource, int tag = kAnyTag) {
    Message m = machine_->do_recv(
        rank_, src == kAnySource ? kAnySource : phys(src), tag);
    m.src = gidx(m.src);
    return m;
  }

  template <typename T>
  std::vector<T> recv(int src = kAnySource, int tag = kAnyTag,
                      int* actual_src = nullptr) {
    Message m = recv_typed<T>(src, tag);
    if (actual_src) *actual_src = gidx(m.src);
    return decode<T>(m.payload);
  }

  /// Blocking receive of a message carrying T values, which stay in its
  /// buffer: the receiver copies them out of payload.data() where it needs
  /// them, instead of decoding a vector first.
  template <typename T>
  Payload recv_payload(int src = kAnySource, int tag = kAnyTag) {
    return recv_typed<T>(src, tag).payload;
  }

  template <typename T>
  T recv_value(int src = kAnySource, int tag = kAnyTag) {
    const Payload payload = recv_payload<T>(src, tag);
    check_multiple<T>(payload);
    if (payload.size() != sizeof(T))
      throw std::runtime_error("recv_value: expected 1 element");
    T v{};
    std::memcpy(&v, payload.data(), sizeof(T));
    return v;
  }

  // ---- collectives (all ranks must call with matching arguments) ----

  /// Dissemination barrier: ceil(log2 p) rounds of pairwise messages.
  void barrier();

  /// Binomial-tree broadcast from root.
  template <typename T>
  std::vector<T> bcast(std::vector<T> data, int root);

  template <typename T>
  T bcast_value(T v, int root) {
    std::vector<T> d{v};
    return bcast(std::move(d), root)[0];
  }

  /// Binomial-tree reduce to root, then broadcast (element-wise op).
  template <typename T, typename Op>
  std::vector<T> allreduce(std::vector<T> v, Op op);

  template <typename T>
  T allreduce_sum(T v) {
    std::vector<T> d{v};
    return allreduce(std::move(d), [](T a, T b) { return a + b; })[0];
  }
  template <typename T>
  T allreduce_max(T v) {
    std::vector<T> d{v};
    return allreduce(std::move(d), [](T a, T b) { return a > b ? a : b; })[0];
  }
  template <typename T>
  T allreduce_min(T v) {
    std::vector<T> d{v};
    return allreduce(std::move(d), [](T a, T b) { return a < b ? a : b; })[0];
  }

  /// Exclusive prefix sum over ranks (rank 0 gets T{}).
  template <typename T>
  T exscan_sum(T v);

  /// Allgather of one value per rank; result indexed by rank.
  template <typename T>
  std::vector<T> allgather(const T& v);

  /// Allgather of a variable-length block per rank ("global concatenation"
  /// in the paper), as one object every rank of the collective shares.
  /// Implemented as a binomial-tree gather to rank 0 followed by a
  /// binomial broadcast — O(log p) message start-ups, matching the CM-5's
  /// fast control-network concatenation. The broadcast forwards one buffer
  /// down the tree, and the first rank to read it decodes it for all.
  template <typename T>
  std::shared_ptr<const Gathered<T>> allgatherv_shared(
      const std::vector<T>& mine);

  /// allgatherv_shared's result as a private copy: the concatenation in
  /// rank order, with offsets[r] the start of rank r's block.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& mine,
                            std::vector<std::size_t>* offsets = nullptr);

private:
  /// allgatherv's wire protocol on raw bytes (p > 1). Returns the
  /// broadcast record stream, one buffer shared by every rank.
  Payload allgatherv_stream(std::span<const std::byte> mine);
  /// Validate a record stream of p blocks in rank order; returns the byte
  /// offset of each block in the header-free concatenation, plus its total
  /// size as entry p.
  static std::vector<std::size_t> stream_offsets(const Payload& stream,
                                                 int p);
  static constexpr std::size_t kRecordHeader = 16;  ///< origin + length

  template <typename T>
  static Payload encode(std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Payload(data.size_bytes(), [data](std::byte* out) {
      if (!data.empty()) std::memcpy(out, data.data(), data.size_bytes());
    });
  }
  template <typename T>
  static void check_multiple(const Payload& payload) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (payload.size() % sizeof(T) != 0)
      throw std::runtime_error("recv: payload size not a multiple of sizeof(T)");
  }
  template <typename T>
  static std::vector<T> decode(const Payload& payload) {
    check_multiple<T>(payload);
    std::vector<T> out(payload.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), payload.data(), payload.size());
    return out;
  }
  /// Blocking receive of a message carrying T elements. The element type
  /// is surfaced to the analyzer: a wildcard receive of floating-point data
  /// feeding an accumulation is how reduction-order sensitivity enters a
  /// program.
  template <typename T>
  Message recv_typed(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    return machine_->do_recv(rank_, src == kAnySource ? kAnySource : phys(src),
                             tag, std::is_floating_point_v<T>);
  }

public:

  /// The paper's All-to-many exchange (Fig 12): every rank supplies one
  /// buffer per destination (empty allowed); returns one buffer per source.
  /// Only non-empty buffers travel, one message per destination — the
  /// "communication coalescing" optimization of Section 3.2. Receive
  /// counts are agreed with a log(p) allreduce of per-destination message
  /// counts (the sparse equivalent of the paper's "global concatenate the
  /// myId row of table"; concatenating the full p-by-p table, which the
  /// CM-5's control network did in hardware, would cost O(p^2) bytes
  /// through the broadcast root under the point-to-point model).
  template <typename T>
  std::vector<std::vector<T>> all_to_many(std::vector<std::vector<T>> send);

  /// Sparse All-to-many: the same exchange expressed as (destination,
  /// buffer) pairs, so a rank that talks to k neighbors allocates O(k)
  /// instead of one buffer per world rank. Destinations may arrive in any
  /// order (sorted internally; duplicates are an error); empty buffers are
  /// legal and travel nowhere. Returns (source, buffer) pairs in ascending
  /// source order, one per non-empty delivery (the self pair included when
  /// non-empty). Wire-identical to the dense overload — same counts
  /// allreduce, same ascending-destination message sequence — which
  /// delegates here; the only O(p) allocation left is the count vector
  /// inside the collective itself.
  template <typename T>
  std::vector<std::pair<int, std::vector<T>>> all_to_many(
      std::vector<std::pair<int, std::vector<T>>> send);

private:
  /// RAII guard marking execution inside a collective. While a rank's
  /// collective depth is positive, reserved (negative) tags are legal and
  /// the analyzer treats the traffic as verified library internals (e.g.
  /// all_to_many's wildcard receives are source-keyed, hence benign).
  class CollectiveScope {
  public:
    explicit CollectiveScope(Comm& c) : comm_(c) {
      ++comm_.machine_->ranks_[comm_.rank_].collective_depth;
    }
    ~CollectiveScope() {
      --comm_.machine_->ranks_[comm_.rank_].collective_depth;
    }
    CollectiveScope(const CollectiveScope&) = delete;
    CollectiveScope& operator=(const CollectiveScope&) = delete;

  private:
    Comm& comm_;
  };

  // Reserved (negative) tag bases for collectives.
  static constexpr int kTagBarrier = -100;
  static constexpr int kTagBcast = -200;
  static constexpr int kTagReduce = -300;
  static constexpr int kTagGatherRing = -400;
  static constexpr int kTagAllToMany = -500;
  static constexpr int kTagScan = -600;

public:
  /// Reserved control channel for the transport's retransmit protocol
  /// (NACK + redelivery). Control traffic is accounted against the
  /// receiving rank's current phase; see Machine::recover_corruption.
  static constexpr int kTagRetransmit = -900;

private:
  /// Group index -> physical rank (identity while group_ is empty).
  int phys(int g) const {
    if (group_.empty()) return g;
    if (g < 0 || g >= gsize_)
      throw std::out_of_range("comm: group rank " + std::to_string(g) +
                              " outside the current group of " +
                              std::to_string(gsize_));
    return group_[static_cast<std::size_t>(g)];
  }
  /// Physical rank -> group index; -1 when not a member.
  int gidx(int p) const {
    if (group_.empty()) return p;
    const auto it = std::lower_bound(group_.begin(), group_.end(), p);
    if (it == group_.end() || *it != p) return -1;
    return static_cast<int>(it - group_.begin());
  }

  Machine* machine_;
  int rank_;   ///< physical (world) rank; indexes machine state
  /// Survivor group after agree_on_membership(); empty = identity.
  std::vector<int> group_;
  int grank_;  ///< this rank's index within the group
  int gsize_;  ///< group size
};

// ---- collective implementations ----

template <typename T>
std::vector<T> Comm::bcast(std::vector<T> data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  if (p == 1) return data;
  CollectiveScope scope(*this);
  // Rotate ranks so the tree is rooted at `root` (group indices throughout).
  const int vrank = (rank() - root + p) % p;
  // Walk masks upward to find the level at which we receive from our
  // parent, then forward downward to each child (standard binomial tree).
  // Every child gets the buffer this rank received (the root's, encoded
  // once), not a copy of it.
  Payload wire;
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % p;
      wire = recv_typed<T>(parent, kTagBcast).payload;
      data = decode<T>(wire);
      break;
    }
    mask <<= 1;
  }
  if (vrank == 0) wire = encode(std::span<const T>(data));
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) send_bytes((vrank + mask + root) % p, kTagBcast, wire);
    mask >>= 1;
  }
  return data;
}

template <typename T, typename Op>
std::vector<T> Comm::allreduce(std::vector<T> v, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  if (p == 1) return v;
  CollectiveScope scope(*this);
  // Binomial-tree reduction to group rank 0.
  const int r = rank();
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((r & mask) != 0) {
      send(r & ~mask, kTagReduce, v);
      break;
    }
    const int partner = r | mask;
    if (partner < p) {
      // Combine with the partner's values where they arrived.
      const Payload other = recv_payload<T>(partner, kTagReduce);
      check_multiple<T>(other);
      if (other.size() != v.size() * sizeof(T))
        throw std::runtime_error("allreduce: mismatched vector lengths");
      const std::byte* in = other.data();
      for (std::size_t i = 0; i < v.size(); ++i, in += sizeof(T)) {
        T x{};
        std::memcpy(&x, in, sizeof(T));
        v[i] = op(v[i], x);
      }
    }
  }
  return bcast(std::move(v), 0);
}

template <typename T>
T Comm::exscan_sum(T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  // Linear chain: rank r sends its inclusive prefix to r+1. O(p) steps but
  // simple and exact; used only in setup paths.
  CollectiveScope scope(*this);
  T prefix{};
  const int r = rank();
  if (r > 0) prefix = recv_value<T>(r - 1, kTagScan);
  if (r + 1 < size()) send_value(r + 1, kTagScan, static_cast<T>(prefix + v));
  return prefix;
}

template <typename T>
std::vector<T> Comm::allgather(const T& v) {
  auto cat = allgatherv(std::vector<T>{v});
  return cat;
}

template <typename T>
std::shared_ptr<const Gathered<T>> Comm::allgatherv_shared(
    const std::vector<T>& mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  if (p == 1)
    return std::make_shared<const Gathered<T>>(mine,
                                               std::vector<std::size_t>{0});
  const Payload stream = allgatherv_stream(std::as_bytes(std::span(mine)));
  // The header strip and the typed decode run once, on the shared buffer,
  // by whichever rank reads it first.
  return stream.derive<Gathered<T>>([&stream, p] {
    const auto bytes_at = stream_offsets(stream, p);
    if (bytes_at.back() % sizeof(T) != 0)
      throw std::runtime_error(
          "allgatherv: byte count not multiple of sizeof(T)");
    std::vector<T> values(bytes_at.back() / sizeof(T));
    auto* out = reinterpret_cast<std::byte*>(values.data());
    std::vector<std::size_t> offsets(static_cast<std::size_t>(p));
    for (std::size_t r = 0; r < offsets.size(); ++r) {
      offsets[r] = bytes_at[r] / sizeof(T);
      const std::size_t len = bytes_at[r + 1] - bytes_at[r];
      // In the stream, rank r's block follows r + 1 record headers.
      if (len != 0)
        std::memcpy(out + bytes_at[r],
                    stream.data() + bytes_at[r] + (r + 1) * kRecordHeader,
                    len);
    }
    return Gathered<T>(std::move(values), std::move(offsets));
  });
}

template <typename T>
std::vector<T> Comm::allgatherv(const std::vector<T>& mine,
                                std::vector<std::size_t>* offsets) {
  const auto gathered = allgatherv_shared(mine);
  if (offsets) *offsets = gathered->offsets();
  return gathered->values();
}

template <typename T>
std::vector<std::vector<T>> Comm::all_to_many(
    std::vector<std::vector<T>> send_bufs) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  if (static_cast<int>(send_bufs.size()) != p)
    throw std::invalid_argument("all_to_many: need one buffer per rank");
  // Delegate to the sparse exchange: non-empty buffers become (dest,
  // buffer) pairs in ascending destination order, which is exactly the
  // dense send order, so the wire traffic is unchanged.
  std::vector<std::pair<int, std::vector<T>>> pairs;
  for (int d = 0; d < p; ++d)
    if (!send_bufs[static_cast<std::size_t>(d)].empty())
      pairs.emplace_back(d, std::move(send_bufs[static_cast<std::size_t>(d)]));
  auto recv_pairs = all_to_many(std::move(pairs));
  std::vector<std::vector<T>> recv_bufs(static_cast<std::size_t>(p));
  for (auto& [src, buf] : recv_pairs)
    recv_bufs[static_cast<std::size_t>(src)] = std::move(buf);
  return recv_bufs;
}

template <typename T>
std::vector<std::pair<int, std::vector<T>>> Comm::all_to_many(
    std::vector<std::pair<int, std::vector<T>>> send_pairs) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  std::sort(send_pairs.begin(), send_pairs.end(),
            [](const std::pair<int, std::vector<T>>& a,
               const std::pair<int, std::vector<T>>& b) {
              return a.first < b.first;
            });
  for (std::size_t i = 0; i < send_pairs.size(); ++i) {
    const int d = send_pairs[i].first;
    if (d < 0 || d >= p)
      throw std::invalid_argument("all_to_many: destination " +
                                  std::to_string(d) +
                                  " outside the current group");
    if (i > 0 && send_pairs[i - 1].first == d)
      throw std::invalid_argument("all_to_many: duplicate destination " +
                                  std::to_string(d));
  }
  CollectiveScope scope(*this);

  // Agree on receive counts: element d of the allreduced vector is the
  // number of coalesced messages headed for rank d. This count vector is
  // the one deliberately dense O(p) table of the exchange — it lives only
  // for the duration of the collective.
  const int r = rank();
  std::vector<std::uint32_t> incoming(static_cast<std::size_t>(p), 0);
  for (const auto& [d, buf] : send_pairs)
    if (d != r && !buf.empty()) incoming[static_cast<std::size_t>(d)] = 1;
  incoming = allreduce(std::move(incoming),
                       [](std::uint32_t a, std::uint32_t b) { return a + b; });
  const std::uint32_t expected = incoming[static_cast<std::size_t>(r)];

  std::vector<std::pair<int, std::vector<T>>> recv_pairs;
  recv_pairs.reserve(static_cast<std::size_t>(expected) + 1);
  // Local "self-message" costs nothing.
  for (auto& [d, buf] : send_pairs)
    if (d == r && !buf.empty()) recv_pairs.emplace_back(r, std::move(buf));

  // Post all sends (buffered, ascending destination), then receive the
  // promised message count; each source sends at most one message,
  // identified by its origin.
  for (auto& [d, buf] : send_pairs) {
    if (d == r || buf.empty()) continue;
    send(d, kTagAllToMany, buf);
  }
  for (std::uint32_t k = 0; k < expected; ++k) {
    int src = kAnySource;
    auto data = recv<T>(kAnySource, kTagAllToMany, &src);
    recv_pairs.emplace_back(src, std::move(data));
  }
  std::sort(recv_pairs.begin(), recv_pairs.end(),
            [](const std::pair<int, std::vector<T>>& a,
               const std::pair<int, std::vector<T>>& b) {
              return a.first < b.first;
            });
  return recv_pairs;
}

}  // namespace picpar::sim
