// ELEMENT's public socket API (Figure 12 of the paper): wrapper calls that
// behave like send/write/read but additionally return the measured buffer
// delay, TCP-layer throughput, RTT, and congestion window, and optionally run
// the latency-minimization algorithm (Algorithm 3).

#ifndef ELEMENT_SRC_ELEMENT_ELEMENT_SOCKET_H_
#define ELEMENT_SRC_ELEMENT_ELEMENT_SOCKET_H_

#include <functional>
#include <memory>

#include "src/element/delay_estimator.h"
#include "src/element/latency_minimizer.h"
#include "src/element/tcp_info_tracker.h"
#include "src/evloop/event_loop.h"
#include "src/tcpsim/tcp_socket.h"
#include "src/telemetry/record.h"

namespace element {

// Return struct of the em_* wrappers (the paper's `retinfo`).
struct RetInfo {
  long size = 0;               // bytes written/read (like send/recv)
  double buf_delay_s = 0.0;    // latest estimated socket-buffer delay
  double throughput_mbps = 0.0;  // TCP-layer throughput
  double rtt_s = 0.0;
  int cwnd = 0;  // segments
};

// With minimization on, the socket is a per-flow sink on its sender
// estimator's telemetry and feeds each estimate to Algorithm 3.
class ElementSocket : private telemetry::RecordSink {
 public:
  struct Options {
    bool is_wireless = false;                 // init_em's is_wireless flag
    bool enable_latency_minimization = true;  // init_em's algorithm selector
    TimeDelta tracker_period = TcpInfoTracker::kDefaultPeriod;
    // Algorithm 3's parameters; `delay_threshold` (D_thr) is the
    // application's latency budget (the §7 QoS hook).
    MinimizerParams minimizer;
  };

  // init_em: attaches ELEMENT to an existing TCP socket.
  ElementSocket(EventLoop* loop, TcpSocket* socket, const Options& options);
  ~ElementSocket() override;  // fin_em

  ElementSocket(const ElementSocket&) = delete;
  ElementSocket& operator=(const ElementSocket&) = delete;

  // em_send / em_write: paced, measured write. `size` in the result is 0 when
  // the write was gated by the minimization algorithm or the buffer was full.
  RetInfo Send(size_t n);
  // em_read: measured read.
  RetInfo Read(size_t max);

  // Event-driven replacements for the paper's blocking sleeps: when Send
  // returns 0, this callback fires once the pacing gate or buffer reopens.
  void SetReadyToSendCallback(std::function<void()> cb);
  void SetReadableCallback(std::function<void()> cb) {
    socket_->SetReadableCallback(std::move(cb));
  }

  bool MaySendNow() const;

  TcpSocket* socket() { return socket_; }
  SenderDelayEstimator& sender_estimator() { return sender_est_; }
  ReceiverDelayEstimator& receiver_estimator() { return receiver_est_; }
  PathDelayEstimator& path_estimator() { return path_est_; }
  // Algorithm 3, or null when minimization is disabled.
  LatencyMinimizer* minimizer() {  // lint_sim: allow(test-only) -- observer
    return minimizer_.get();
  }

  // Convenience: latest delay decomposition visible to the application.
  double send_buffer_delay_s() const { return sender_est_.latest_delay().ToSeconds(); }
  double recv_buffer_delay_s() const { return receiver_est_.latest_delay().ToSeconds(); }

 private:
  void OnRecord(const telemetry::TraceRecord& record) override {
    minimizer_->OnDelayMeasurement(record.u.delay.sender_s);
  }
  RetInfo MakeRetInfo(long size, double buf_delay_s) const;
  void ArmGateRetry();
  void OnGateRetry();

  EventLoop* loop_;
  TcpSocket* socket_;

  std::unique_ptr<TcpInfoTracker> tracker_;
  SenderDelayEstimator sender_est_;
  ReceiverDelayEstimator receiver_est_;
  PathDelayEstimator path_est_;
  std::unique_ptr<LatencyMinimizer> minimizer_;

  std::function<void()> ready_cb_;
  Timer retry_timer_;
};

}  // namespace element

#endif  // ELEMENT_SRC_ELEMENT_ELEMENT_SOCKET_H_
