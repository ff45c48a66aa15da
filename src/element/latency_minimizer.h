// ELEMENT's latency-minimization algorithm (Algorithm 3): an
// application-layer analogue of FAST TCP. It adapts S_target — the amount of
// data allowed to sit unsent in the TCP send buffer — by the ratio of the
// measured average buffer delay to a threshold:
//     S_target <- min( beta * cwnd * mss, (D_thr / D_avg)^delta * S_target )
// and gates application writes with an escalating sleep ladder (cnt^lambda ms,
// at most delta_max sleeps per send).

#ifndef ELEMENT_SRC_ELEMENT_LATENCY_MINIMIZER_H_
#define ELEMENT_SRC_ELEMENT_LATENCY_MINIMIZER_H_

#include "src/element/delay_estimator.h"
#include "src/evloop/event_loop.h"
#include "src/tcpsim/tcp_socket.h"

namespace element {

struct MinimizerParams {
  TimeDelta delay_threshold = TimeDelta::FromMillis(25);  // D_thr
  double delta = 0.25;        // adjustment exponent
};

class LatencyMinimizer {
 public:
  static constexpr double kBeta = 2.1;   // cwnd cap multiplier
  static constexpr double kGamma = 1.1;  // wireless sndbuf multiplier
  static constexpr int kMaxSleeps = 8;   // delta in the paper's sleep loop

  LatencyMinimizer(EventLoop* loop, TcpSocket* socket, const MinimizerParams& params,
                   bool is_wireless);

  void Start() { check_timer_.Start(); }

  // Feed each new send-buffer delay measurement (Algorithm 1's output).
  void OnDelayMeasurement(double measured_s);

  // True when the application may push more data: the estimated amount
  // buffered-but-unsent in the TCP layer is within S_target, or the sleep
  // budget for this send is exhausted.
  bool MaySendNow() const;
  // Next retry delay when gated (advances the sleep ladder).
  TimeDelta NextRetryDelay();
  // Reset the ladder after an allowed send.
  void OnSendAllowed() { sleep_count_ = 0; }

  uint64_t starget_bytes() const { return static_cast<uint64_t>(starget_); }
  TimeDelta average_delay() const {  // lint_sim: allow(test-only) -- observer
    return TimeDelta::FromSeconds(avg_delay_s_);
  }

 private:
  void CheckAndAdjust();

  EventLoop* loop_;
  TcpSocket* socket_;
  MinimizerParams params_;
  bool is_wireless_;

  PeriodicTimer check_timer_;
  SimTime last_adjust_;
  double avg_delay_s_ = 0.0;
  bool have_delay_ = false;
  double starget_ = 0.0;  // bytes; 0 = uninitialized
  int sleep_count_ = 0;
};

}  // namespace element

#endif  // ELEMENT_SRC_ELEMENT_LATENCY_MINIMIZER_H_
