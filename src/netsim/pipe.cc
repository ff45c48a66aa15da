#include "src/netsim/pipe.h"

#include <utility>

namespace element {

Pipe::Pipe(EventLoop* loop, Rng rng, std::unique_ptr<Qdisc> qdisc,
           std::unique_ptr<LinkModel> link, PacketSink* out)
    : loop_(loop),
      rng_(std::move(rng)),
      qdisc_(std::move(qdisc)),
      link_(std::move(link)),
      out_(out),
      tx_timer_(loop, [this] { OnTxTimer(); }),
      delivery_timer_(loop, [this] { DeliverFront(); }) {}

void Pipe::Send(Packet pkt) {
  // Kick the transmitter even when the queue drops this packet: the line may
  // be idle with a backlog (e.g. just after an outage).
  qdisc_->Enqueue(std::move(pkt), loop_->now());
  MaybeStartTransmission();
}

TimeDelta Pipe::CurrentBacklogDelay() {
  DataRate rate = link_->RateAt(loop_->now());
  if (rate.IsZero()) {
    return TimeDelta::Infinite();
  }
  return rate.TransmitTime(qdisc_->byte_count());
}

void Pipe::MaybeStartTransmission() {
  if (busy_) {
    return;
  }
  std::optional<Packet> pkt = qdisc_->Dequeue(loop_->now());
  if (!pkt.has_value()) {
    return;
  }
  busy_ = true;
  txing_ = std::move(*pkt);
  TransmitOrPark();
}

void Pipe::TransmitOrPark() {
  DataRate rate = link_->RateAt(loop_->now());
  TimeDelta tx_time = rate.TransmitTime(txing_->size_bytes);
  if (tx_time.IsInfinite()) {
    // Link outage: hold this packet at the head of the line and retry; the
    // pipe stays busy so ordering is preserved and nothing is re-dropped.
    parked_ = true;
    tx_timer_.RestartAfter(TimeDelta::FromMillis(10));
    return;
  }
  parked_ = false;
  tx_timer_.RestartAfter(tx_time);
}

void Pipe::OnTxTimer() {
  if (parked_) {
    TransmitOrPark();
  } else {
    OnTransmitComplete();
  }
}

void Pipe::OnTransmitComplete() {
  busy_ = false;
  Packet pkt = std::move(*txing_);
  txing_.reset();
  if (!link_->DropOnWire(rng_, loop_->now())) {
    SimTime deliver_at = loop_->now() + link_->PropagationDelay() + link_->JitterFor(rng_);
    // Links do not reorder: clamp to the latest scheduled delivery.
    if (deliver_at < last_delivery_) {
      deliver_at = last_delivery_;
    }
    last_delivery_ = deliver_at;
    wire_.push_back(std::move(pkt));
    delivery_timer_.Push(deliver_at);
  }
  MaybeStartTransmission();
}

void Pipe::DeliverFront() {
  Packet pkt = std::move(wire_.front());
  wire_.pop_front();
  out_->Deliver(std::move(pkt));
}

void Demux::Deliver(Packet pkt) {
  PacketSink* sink = Find(pkt.flow_id);
  if (sink == nullptr) {
    ++unroutable_;
    return;
  }
  sink->Deliver(std::move(pkt));
}

DuplexPath::DuplexPath(EventLoop* loop, Rng* rng, std::unique_ptr<Qdisc> fwd_qdisc,
                       std::unique_ptr<LinkModel> fwd_link, std::unique_ptr<Qdisc> rev_qdisc,
                       std::unique_ptr<LinkModel> rev_link) {
  forward_ = std::make_unique<Pipe>(loop, rng->Fork(), std::move(fwd_qdisc),
                                    std::move(fwd_link), &server_demux_);
  reverse_ = std::make_unique<Pipe>(loop, rng->Fork(), std::move(rev_qdisc),
                                    std::move(rev_link), &client_demux_);
}

}  // namespace element
