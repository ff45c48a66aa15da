#include "src/udpproto/udp_socket.h"

#include <memory>
#include <utility>

namespace element {

UdpSocket::UdpSocket(EventLoop* loop, uint64_t flow_id, PacketSink* tx, Demux* rx_demux)
    : loop_(loop), flow_id_(flow_id), tx_(tx), rx_demux_(rx_demux) {
  rx_demux_->Register(flow_id_, this);
}

UdpSocket::~UdpSocket() { rx_demux_->Unregister(flow_id_); }

void UdpSocket::SendDatagram(const UdpDatagramPayload& payload) {
  Packet pkt;
  pkt.flow_id = flow_id_;
  pkt.size_bytes = kIpUdpHeaderBytes + payload.payload_bytes;
  pkt.created = loop_->now();
  auto owned = MakePooledPayload<UdpDatagramPayload>(loop_->payload_arena(), payload);
  owned->sent = loop_->now();
  pkt.payload = std::move(owned);
  tx_->Deliver(std::move(pkt));
}

void UdpSocket::Deliver(Packet pkt) {
  if (on_receive_) {
    const auto& payload = *static_cast<const UdpDatagramPayload*>(pkt.payload.get());
    on_receive_(payload, pkt);
  }
}

}  // namespace element
