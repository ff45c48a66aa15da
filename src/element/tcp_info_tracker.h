// The tcp_info tracking "thread": polls TCP_INFO every P (10 ms by default,
// the paper's accuracy/overhead compromise) and feeds the delay estimators.
// Each poll reads the socket's versioned shared info page (§7), which is only
// rebuilt from getsockopt(TCP_INFO) when the connection state changed, so an
// always-on tracker costs nothing between ACK bursts. Also derives TCP-layer
// throughput from bytes-acked deltas.

#ifndef ELEMENT_SRC_ELEMENT_TCP_INFO_TRACKER_H_
#define ELEMENT_SRC_ELEMENT_TCP_INFO_TRACKER_H_

#include "src/common/data_rate.h"
#include "src/common/ring_fifo.h"
#include "src/evloop/event_loop.h"
#include "src/element/delay_estimator.h"
#include "src/element/path_delay_estimator.h"
#include "src/tcpsim/tcp_socket.h"

namespace element {

class TcpInfoTracker {
 public:
  static constexpr TimeDelta kDefaultPeriod = TimeDelta::FromMillis(10);

  TcpInfoTracker(EventLoop* loop, TcpSocket* socket, TimeDelta period = kDefaultPeriod);

  void set_sender_estimator(SenderDelayEstimator* est) { sender_est_ = est; }
  void set_receiver_estimator(ReceiverDelayEstimator* est) { receiver_est_ = est; }
  void set_path_estimator(PathDelayEstimator* est) { path_est_ = est; }

  void Start() { timer_.Start(); }
  void Stop() { timer_.Stop(); }

  // Latest polled snapshot (also reachable via socket->GetTcpInfo(), but this
  // is what user code would have, sampled at the tracker cadence).
  const TcpInfoData& latest_info() const { return latest_; }
  // Throughput at the TCP layer: ACKed bytes over a trailing window (ACK
  // arrivals are bursty at the poll granularity, so a window — rather than a
  // per-poll EWMA — gives an unaliased rate). Computed once per poll, since
  // it only changes there.
  DataRate throughput() const { return throughput_; }
  uint64_t samples_taken() const { return samples_; }  // lint_sim: allow(test-only) -- observer

  // Forces an immediate poll (used by em_send/em_read wrappers so their
  // returned info is fresh).
  void PollNow();

 private:
  EventLoop* loop_;
  TcpSocket* socket_;
  PeriodicTimer timer_;
  SenderDelayEstimator* sender_est_ = nullptr;
  ReceiverDelayEstimator* receiver_est_ = nullptr;
  PathDelayEstimator* path_est_ = nullptr;

  TcpInfoData latest_;
  uint64_t samples_ = 0;

  struct AckedPoint {
    SimTime t;
    uint64_t bytes_acked;
  };
  static constexpr TimeDelta kThroughputWindow = TimeDelta::FromMillis(1000);
  RingFifo<AckedPoint> acked_history_;
  DataRate throughput_ = DataRate::Zero();
};

}  // namespace element

#endif  // ELEMENT_SRC_ELEMENT_TCP_INFO_TRACKER_H_
