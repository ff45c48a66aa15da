// TCP segment payload carried inside a netsim Packet.

#ifndef ELEMENT_SRC_TCPSIM_TCP_SEGMENT_H_
#define ELEMENT_SRC_TCPSIM_TCP_SEGMENT_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/netsim/packet.h"

namespace element {

struct SackBlock {
  uint64_t begin = 0;
  uint64_t end = 0;
};

// The SACK option's blocks, inline in the segment: a fixed array and a
// count, so building an ACK allocates nothing.
class SackList {
 public:
  static constexpr size_t kCapacity = 4;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const SackBlock& operator[](size_t i) const { return blocks_[i]; }
  const SackBlock* begin() const { return blocks_.data(); }
  const SackBlock* end() const { return blocks_.data() + size_; }
  // Appends a block; a full list ignores it.
  void push_back(const SackBlock& b) {
    if (size_ < kCapacity) {
      blocks_[size_++] = b;
    }
  }

 private:
  std::array<SackBlock, kCapacity> blocks_{};
  size_t size_ = 0;
};

struct TcpSegmentPayload : public Payload {
  // Flags.
  bool syn = false;
  bool ack = false;
  bool ece = false;  // ECN-Echo
  bool cwr = false;  // Congestion Window Reduced

  // Byte-stream sequence space (64-bit; no wraparound in simulation).
  uint64_t seq = 0;           // first payload byte
  uint32_t payload_bytes = 0;  // 0 for pure control segments
  uint64_t ack_seq = 0;        // cumulative ACK (valid when ack)
  uint64_t receive_window = 0;  // advertised window, bytes

  bool retransmit = false;  // marked by the sender, for tracing only

  // SACK option: up to kMaxSackBlocks ranges received above the cumulative
  // ACK, most recently changed first (RFC 2018).
  static constexpr size_t kMaxSackBlocks = SackList::kCapacity;
  SackList sacks;
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_TCP_SEGMENT_H_
