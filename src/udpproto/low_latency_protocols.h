// Behavioural models of the UDP low-latency protocols in Figure 16.
//
// SproutLike — after Sprout (Winstein et al., NSDI'13): the receiver observes
// the arrival process in short ticks, forecasts how many bytes can safely be
// in the network over the next horizon at a conservative percentile, and
// feeds the sender an allowance. Very low delay, deliberately cautious
// bandwidth estimates.
//
// VerusLike — after Verus (Zaki et al., SIGCOMM'15): a delay-driven sending
// window; the sender learns the relationship between window and delay and
// backs off multiplicatively when the delay rises above target.
//
// Both are simplifications; DESIGN.md documents the substitution. What
// Figure 16 needs from them is the qualitative trade-off: minimal queueing
// delay but poor throughput fairness against loss-based TCP.

#ifndef ELEMENT_SRC_UDPPROTO_LOW_LATENCY_PROTOCOLS_H_
#define ELEMENT_SRC_UDPPROTO_LOW_LATENCY_PROTOCOLS_H_

#include <memory>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/udpproto/udp_socket.h"

namespace element {

class SproutLikeFlow {
 public:
  SproutLikeFlow(EventLoop* loop, DuplexPath* path);

  void Start();
  void Stop();

  const SampleSet& one_way_delays() const { return delays_; }
  uint64_t delivered_bytes() const { return delivered_bytes_; }

 private:
  void SenderTick();
  void OnSenderReceive(const UdpDatagramPayload& payload, const Packet& pkt);
  void ReceiverTick();
  void OnReceiverReceive(const UdpDatagramPayload& payload, const Packet& pkt);

  EventLoop* loop_;
  std::unique_ptr<UdpSocket> sender_;
  std::unique_ptr<UdpSocket> receiver_;
  PeriodicTimer send_timer_;
  PeriodicTimer recv_timer_;

  // Sender state.
  double allowance_bytes_ = 20000.0;  // initial probe allowance
  uint64_t next_seq_ = 0;

  // Receiver state.
  uint64_t tick_bytes_ = 0;
  double rate_mean_ = 0.0;   // bytes/s
  double rate_var_ = 0.0;
  bool have_rate_ = false;
  TimeDelta min_owd_ = TimeDelta::Infinite();
  TimeDelta tick_max_owd_ = TimeDelta::Zero();
  uint64_t delivered_bytes_ = 0;
  SampleSet delays_;
};

class VerusLikeFlow {
 public:
  VerusLikeFlow(EventLoop* loop, DuplexPath* path);

  void Start();
  void Stop();

  const SampleSet& one_way_delays() const { return delays_; }
  uint64_t delivered_bytes() const { return delivered_bytes_; }
  double window_bytes() const { return window_bytes_; }  // lint_sim: allow(test-only) -- observer

 private:
  void EpochTick();
  void TrySend();
  void OnSenderReceive(const UdpDatagramPayload& payload, const Packet& pkt);
  void OnReceiverReceive(const UdpDatagramPayload& payload, const Packet& pkt);

  EventLoop* loop_;
  std::unique_ptr<UdpSocket> sender_;
  std::unique_ptr<UdpSocket> receiver_;
  PeriodicTimer epoch_timer_;

  double window_bytes_ = 14000.0;
  uint64_t next_seq_ = 0;
  uint64_t highest_acked_ = 0;
  uint64_t bytes_unacked_ = 0;
  TimeDelta min_owd_ = TimeDelta::Infinite();
  TimeDelta latest_owd_ = TimeDelta::Zero();

  uint64_t delivered_bytes_ = 0;
  SampleSet delays_;
};

}  // namespace element

#endif  // ELEMENT_SRC_UDPPROTO_LOW_LATENCY_PROTOCOLS_H_
