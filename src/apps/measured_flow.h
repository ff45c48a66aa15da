// The per-flow measurement wiring shared by the three experiment drivers
// (RunLegacyExperiment, RunAccuracyExperiment, RunContentionExperiment).
// Given one flow's connected sender and receiver sockets, MeasuredFlow
// attaches the ground-truth tracer (the paper's probes at write,
// tcp_transmit_skb, tcp_v4_do_rcv and read, Section 4.3) to both, builds the
// application's ByteSink with the IperfApp writing into it and the SinkApp
// draining the far end, and after the run reduces the flow to one FlowResult
// row plus, for a measured flow, ELEMENT's accuracy at both ends. How the
// sockets are made and when the flows start stay with each driver.

#ifndef ELEMENT_SRC_APPS_MEASURED_FLOW_H_
#define ELEMENT_SRC_APPS_MEASURED_FLOW_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/apps/iperf_app.h"
#include "src/common/time.h"
#include "src/element/byte_sink.h"
#include "src/element/element_socket.h"
#include "src/element/estimation_error.h"
#include "src/evloop/event_loop.h"
#include "src/tcpsim/tcp_socket.h"
#include "src/trace/ground_truth.h"

namespace element {

// One flow's row in every driver's results.
struct FlowResult {
  std::string label;
  double goodput_mbps = 0.0;
  double sender_delay_s = 0.0;
  double network_delay_s = 0.0;
  double receiver_delay_s = 0.0;
  double e2e_delay_s = 0.0;
  // End-to-end delay above the observed floor — the paper's "relative delay".
  double relative_delay_s = 0.0;
  double sender_delay_stdev_s = 0.0;
  double receiver_delay_stdev_s = 0.0;
  uint64_t retransmits = 0;
};

class MeasuredFlow {
 public:
  // What the application writes through.
  enum class Element {
    kOff,         // straight into TCP
    kMeasured,    // an ElementSocket at each end with minimization off: the
                  // estimates are scored, the flow itself is unchanged
    kInterposed,  // the LD_PRELOAD-style InterposedSink: Algorithm 3 paces
                  // the writes, the reader stays plain
  };

  struct Options {
    Element element = Element::kOff;
    bool wireless = false;                                 // kInterposed
    TimeDelta tracker_period = TimeDelta::FromMillis(10);  // kMeasured
    GroundTruthTracer::Config tracer;
  };

  // The sockets must outlive the flow. Nothing runs until Start().
  MeasuredFlow(EventLoop* loop, TcpSocket* sender, TcpSocket* receiver, const Options& options);
  MeasuredFlow(const MeasuredFlow&) = delete;
  MeasuredFlow& operator=(const MeasuredFlow&) = delete;

  // Starts the writer, then the reader.
  void Start();

  // Goodput from the bytes the receiver read over a run of `duration_s`.
  double GoodputMbps(double duration_s) const;

  // The flow's row after a run of `duration_s`. The label is the congestion
  // control, suffixed "+ELEMENT" when ELEMENT sits on the flow; the relative
  // delay is the end-to-end delay above `base_delay_s`, the propagation floor
  // of the data direction.
  FlowResult Result(const std::string& congestion_control, double duration_s,
                    double base_delay_s) const;

  // kMeasured only: ELEMENT's estimates at each end against ground truth.
  AccuracyResult SenderAccuracy() const;
  AccuracyResult ReceiverAccuracy() const;

  const GroundTruthTracer& tracer() const { return tracer_; }

 private:
  Element element_;
  TcpSocket* sender_;
  TcpSocket* receiver_;
  GroundTruthTracer tracer_;
  std::unique_ptr<ElementSocket> em_snd_;
  std::unique_ptr<ElementSocket> em_rcv_;
  std::unique_ptr<ByteSink> sink_;
  std::unique_ptr<IperfApp> app_;
  std::unique_ptr<SinkApp> reader_;
};

}  // namespace element

#endif  // ELEMENT_SRC_APPS_MEASURED_FLOW_H_
