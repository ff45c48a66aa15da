// Minimal UDP endpoint over the simulated network, substrate for the
// Sprout-like and Verus-like low-latency protocols that Figure 16 compares
// against ELEMENT.

#ifndef ELEMENT_SRC_UDPPROTO_UDP_SOCKET_H_
#define ELEMENT_SRC_UDPPROTO_UDP_SOCKET_H_

#include <functional>

#include "src/evloop/event_loop.h"
#include "src/netsim/pipe.h"

namespace element {

struct UdpDatagramPayload : public Payload {
  uint64_t seq = 0;
  SimTime sent;
  uint32_t payload_bytes = 0;
  bool is_feedback = false;
  // Feedback fields (protocol-specific meaning).
  uint64_t ack_seq = 0;
  double metric_a = 0.0;  // Sprout: forecast bytes allowance; Verus: rx rate
  double metric_b = 0.0;  // Sprout: observed rate; Verus: one-way delay (s)
};

class UdpSocket : public PacketSink {
 public:
  using ReceiveCallback = std::function<void(const UdpDatagramPayload&, const Packet&)>;

  UdpSocket(EventLoop* loop, uint64_t flow_id, PacketSink* tx, Demux* rx_demux);
  ~UdpSocket() override;

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  void SendDatagram(const UdpDatagramPayload& payload);
  void SetReceiveCallback(ReceiveCallback cb) { on_receive_ = std::move(cb); }

  void Deliver(Packet pkt) override;

 private:
  EventLoop* loop_;
  uint64_t flow_id_;
  PacketSink* tx_;
  Demux* rx_demux_;
  ReceiveCallback on_receive_;
};

}  // namespace element

#endif  // ELEMENT_SRC_UDPPROTO_UDP_SOCKET_H_
