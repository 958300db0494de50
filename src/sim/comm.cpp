#include "sim/comm.hpp"

#include <cstring>
#include <span>
#include <stdexcept>

namespace picpar::sim {

Payload Comm::allgatherv_stream(std::span<const std::byte> mine) {
  const int p = size();
  CollectiveScope scope(*this);

  // Binomial-tree gather of records to group rank 0 (all ranks below are
  // group indices; send/recv translate to physical ranks). The record
  // stream is a sequence of (origin: u64, length: u64, bytes) records. Rank
  // r collects the subtrees of r|1, r|2, r|4, ... in that order, and the
  // subtree of r|m is the contiguous rank range [r|m, r|m + m), so its own
  // record followed by the received streams, rank 0's included, is already
  // in ascending rank order.
  const int gr = rank();
  std::vector<Payload> subtrees;
  const auto gathered = [&] {
    std::size_t n = kRecordHeader + mine.size();
    for (const Payload& s : subtrees) n += s.size();
    return Payload(n, [&](std::byte* out) {
      const auto origin = static_cast<std::uint64_t>(gr);
      const std::uint64_t len = mine.size();
      std::memcpy(out, &origin, 8);
      std::memcpy(out + 8, &len, 8);
      out += kRecordHeader;
      if (!mine.empty()) std::memcpy(out, mine.data(), mine.size());
      out += mine.size();
      for (const Payload& s : subtrees) {
        if (s.size() != 0) std::memcpy(out, s.data(), s.size());
        out += s.size();
      }
    });
  };
  constexpr int kTagGather = -450;
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((gr & mask) != 0) {
      send_bytes(gr & ~mask, kTagGather, gathered());
      break;
    }
    const int partner = gr | mask;
    if (partner < p) subtrees.push_back(recv_msg(partner, kTagGather).payload);
  }

  // Binomial broadcast of the rank-ordered stream from rank 0. Each rank
  // forwards the buffer it received, so all p ranks end up holding rank
  // 0's one buffer.
  constexpr int kTagCat = -460;
  Payload stream;
  if (gr == 0) stream = gathered();
  int mask = 1;
  while (mask < p) {
    if (gr & mask) {
      stream = recv_msg(gr - mask, kTagCat).payload;
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1)
    if (gr + mask < p) send_bytes(gr + mask, kTagCat, stream);
  return stream;
}

std::vector<std::size_t> Comm::stream_offsets(const Payload& stream, int p) {
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  std::size_t rd = 0, wr = 0;
  for (int r = 0; r < p; ++r) {
    std::uint64_t origin = 0, len = 0;
    if (stream.size() - rd < kRecordHeader)
      throw std::runtime_error("allgatherv: truncated record stream");
    std::memcpy(&origin, stream.data() + rd, 8);
    std::memcpy(&len, stream.data() + rd + 8, 8);
    rd += kRecordHeader;
    if (origin != static_cast<std::uint64_t>(r) || stream.size() - rd < len)
      throw std::runtime_error("allgatherv: record stream out of rank order");
    offsets[static_cast<std::size_t>(r)] = wr;
    wr += len;
    rd += len;
  }
  offsets.back() = wr;
  return offsets;
}

void Comm::barrier() {
  const int p = size();
  if (p == 1) return;
  CollectiveScope scope(*this);
  // Dissemination barrier: ceil(log2 p) rounds; in round k, group rank r
  // signals (r + 2^k) mod p and waits for (r - 2^k) mod p.
  const int gr = rank();
  for (int dist = 1; dist < p; dist <<= 1) {
    const int to = (gr + dist) % p;
    const int from = (gr - dist % p + p) % p;
    send_value<std::uint8_t>(to, kTagBarrier - dist, 1);
    (void)recv_value<std::uint8_t>(from, kTagBarrier - dist);
  }
}

}  // namespace picpar::sim
