// Periodic goodput meter for a flow: Figure 18's per-period throughput
// series and the quickstart example's mean goodput.

#ifndef ELEMENT_SRC_TRACE_FLOW_METER_H_
#define ELEMENT_SRC_TRACE_FLOW_METER_H_

#include <memory>

#include "src/common/data_rate.h"
#include "src/common/stats.h"
#include "src/evloop/event_loop.h"
#include "src/tcpsim/tcp_socket.h"

namespace element {

class FlowMeter {
 public:
  FlowMeter(EventLoop* loop, const TcpSocket* receiver,
            TimeDelta period = TimeDelta::FromMillis(100));

  void Start() { timer_.Start(); }
  void Stop() { timer_.Stop(); }

  // Per-period goodput samples, Mbps.
  const TimeSeries& throughput_mbps() const { return series_; }
  // Average goodput since the run began (app bytes consumed).
  DataRate MeanGoodput() const;

 private:
  void Sample();

  EventLoop* loop_;
  const TcpSocket* receiver_;
  PeriodicTimer timer_;
  TimeSeries series_;
  uint64_t last_bytes_ = 0;
  SimTime last_sample_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TRACE_FLOW_METER_H_
