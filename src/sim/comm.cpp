#include "sim/comm.hpp"

#include <cstring>
#include <stdexcept>

namespace picpar::sim {

namespace {

// Serialized record stream used by the binomial allgatherv: a sequence of
// (origin: u64, length: u64, payload bytes) records.
void append_record(std::vector<std::byte>& buf, std::uint64_t origin,
                   const std::byte* data, std::uint64_t len) {
  const std::size_t base = buf.size();
  buf.resize(base + 16 + len);
  std::memcpy(buf.data() + base, &origin, 8);
  std::memcpy(buf.data() + base + 8, &len, 8);
  if (len) std::memcpy(buf.data() + base + 16, data, len);
}

}  // namespace

std::vector<std::byte> Comm::allgatherv_bytes(
    std::vector<std::byte> mine, std::vector<std::size_t>& offsets) {
  const int p = size();
  offsets.assign(static_cast<std::size_t>(p), 0);
  if (p == 1) return mine;
  CollectiveScope scope(*this);

  // Binomial-tree gather of records to group rank 0 (all ranks below are
  // group indices; send/recv translate to physical ranks). Rank r collects
  // the subtrees of r|1, r|2, r|4, ... in that order, and the subtree of
  // r|m is the contiguous rank range [r|m, r|m + m), so every accumulated
  // stream — rank 0's included — is already in ascending rank order.
  const int gr = rank();
  std::vector<std::byte> acc;
  append_record(acc, static_cast<std::uint64_t>(gr), mine.data(),
                mine.size());
  constexpr int kTagGather = -450;
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((gr & mask) != 0) {
      send_bytes(gr & ~mask, kTagGather, std::move(acc));
      acc.clear();
      break;
    }
    const int partner = gr | mask;
    if (partner < p) {
      Message m = recv_msg(partner, kTagGather);
      acc.insert(acc.end(), m.payload.begin(), m.payload.end());
    }
  }

  // Binomial broadcast of the rank-ordered stream from rank 0.
  {
    constexpr int kTagCat = -460;
    int mask = 1;
    while (mask < p) {
      if (gr & mask) {
        Message m = recv_msg(gr - mask, kTagCat);
        acc = std::move(m.payload);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (gr + mask < p) {
        std::vector<std::byte> copy = acc;
        send_bytes(gr + mask, kTagCat, std::move(copy));
      }
      mask >>= 1;
    }
  }

  // Strip the record headers in place: each payload moves down to the
  // write cursor, which never passes the read cursor.
  std::size_t rd = 0, wr = 0;
  for (int r = 0; r < p; ++r) {
    std::uint64_t origin = 0, len = 0;
    if (acc.size() - rd < 16)
      throw std::runtime_error("allgatherv: truncated record stream");
    std::memcpy(&origin, acc.data() + rd, 8);
    std::memcpy(&len, acc.data() + rd + 8, 8);
    rd += 16;
    if (origin != static_cast<std::uint64_t>(r) || acc.size() - rd < len)
      throw std::runtime_error("allgatherv: record stream out of rank order");
    offsets[static_cast<std::size_t>(r)] = wr;
    if (len) std::memmove(acc.data() + wr, acc.data() + rd, len);
    wr += len;
    rd += len;
  }
  acc.resize(wr);
  return acc;
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
