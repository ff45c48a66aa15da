#include "src/netsim/pipe.h"

#include <utility>

namespace element {

void DelayLine::DeliverFront() {
  // Move the packet out before popping: the sink may push onto this line.
  InFlight& front = in_flight_.front();
  PacketSink* out = front.out;
  Packet pkt = std::move(front.pkt);
  in_flight_.pop_front();
  out->Deliver(std::move(pkt));
}

Pipe::Pipe(EventLoop* loop, Rng rng, std::unique_ptr<Qdisc> qdisc,
           std::unique_ptr<LinkModel> link, DelayLine* line, PacketSink* out)
    : loop_(loop),
      rng_(std::move(rng)),
      qdisc_(std::move(qdisc)),
      link_(std::move(link)),
      line_(line),
      out_(out),
      tx_timer_(loop, [this] { OnTxTimer(); }) {}

void Pipe::Send(Packet&& pkt) {
  if (!txing_.has_value() && qdisc_->Bypass(pkt, loop_->now())) {
    txing_.emplace(std::move(pkt));
    TransmitOrPark();
    return;
  }
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
  if (txing_.has_value()) {
    return;
  }
  txing_ = qdisc_->Dequeue(loop_->now());
  if (txing_.has_value()) {
    TransmitOrPark();
  }
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
  if (!link_->DropOnWire(rng_, loop_->now())) {
    SimTime deliver_at = loop_->now() + link_->PropagationDelay() + link_->JitterFor(rng_);
    // Links do not reorder: clamp to the latest scheduled delivery.
    if (deliver_at < last_delivery_) {
      deliver_at = last_delivery_;
    }
    last_delivery_ = deliver_at;
    line_->Push(deliver_at, out_, std::move(*txing_));
  }
  txing_.reset();
  MaybeStartTransmission();
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
                       std::unique_ptr<LinkModel> rev_link)
    : forward_line_(loop), reverse_line_(loop) {
  forward_ = std::make_unique<Pipe>(loop, rng->Fork(), std::move(fwd_qdisc),
                                    std::move(fwd_link), &forward_line_, &server_demux_);
  reverse_ = std::make_unique<Pipe>(loop, rng->Fork(), std::move(rev_qdisc),
                                    std::move(rev_link), &reverse_line_, &client_demux_);
}

}  // namespace element
