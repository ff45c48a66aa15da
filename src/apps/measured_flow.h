// The one per-flow measurement wiring, shared by the experiment drivers'
// FlowSet core (below), the benches, the examples and the tests. Given one
// flow's connected sender and receiver sockets, MeasuredFlow attaches the
// ground-truth tracer (the paper's probes at write, tcp_transmit_skb,
// tcp_v4_do_rcv and read, Section 4.3) to both, builds the application's
// ByteSink with the IperfApp writing into it and the SinkApp draining the far
// end, and after the run reduces the flow to one FlowResult row plus, for a
// measured flow, ELEMENT's accuracy at both ends. A measured flow scores while
// it runs: each estimator's kDelaySample records and the tracer's truth points
// stream into one StreamingScorer per end, so accuracy needs neither the
// tracer's series nor the estimators' (drivers that print no trace set
// `tracer.keep_time_series = false`). How the sockets are made and when the
// flows start stay with each caller.
//
// Deliberately hand-wired instead: tab07_cpu_overhead (a tracer would add
// timed work), abl_estimator_formulas (two estimators on one tracker),
// RunMinimized in abl_design_choices (MinimizerParams), latency_probe and
// element_lab's probe command (sender-only ElementSocket), quickstart (teaches
// the raw sink swap), the VR app, micro_evloop and perfbench's replicas.

#ifndef ELEMENT_SRC_APPS_MEASURED_FLOW_H_
#define ELEMENT_SRC_APPS_MEASURED_FLOW_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/iperf_app.h"
#include "src/common/time.h"
#include "src/element/byte_sink.h"
#include "src/element/element_socket.h"
#include "src/element/estimation_error.h"
#include "src/evloop/event_loop.h"
#include "src/tcpsim/tcp_socket.h"
#include "src/tcpsim/testbed.h"
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

  // kMeasured only: ELEMENT's estimates at each end against ground truth,
  // scored while the flow ran.
  AccuracyResult SenderAccuracy() const;
  AccuracyResult ReceiverAccuracy() const;

  const GroundTruthTracer& tracer() const { return tracer_; }

  // kMeasured only: the ElementSockets at the sending and receiving end.
  ElementSocket& element_sender();
  ElementSocket& element_receiver();

 private:
  // One end's scorer, fed the estimates from that end's estimator.
  class EstimateScorer : public telemetry::RecordSink {
   public:
    explicit EstimateScorer(bool receiver) : receiver_(receiver) {}
    void OnRecord(const telemetry::TraceRecord& r) override {
      scorer.OnEstimate(r.t, receiver_ ? r.u.delay.receiver_s : r.u.delay.sender_s);
    }
    StreamingScorer scorer;

   private:
    bool receiver_;
  };

  Element element_;
  TcpSocket* sender_;
  TcpSocket* receiver_;
  GroundTruthTracer tracer_;
  EstimateScorer sender_scorer_{/*receiver=*/false};
  EstimateScorer receiver_scorer_{/*receiver=*/true};
  std::unique_ptr<ElementSocket> em_snd_;
  std::unique_ptr<ElementSocket> em_rcv_;
  std::unique_ptr<ByteSink> sink_;
  std::unique_ptr<IperfApp> app_;
  std::unique_ptr<SinkApp> reader_;
};

// A measured flow's ELEMENT estimates against ground truth.
struct AccuracyRun {
  AccuracyResult sender;
  AccuracyResult receiver;
  GroundTruthTracer::Composition composition;
  double goodput_mbps = 0.0;
};

struct FlowSetConfig {
  int flows = 1;
  TcpSocket::Config socket;
  MeasuredFlow::Options first;   // flow 0
  MeasuredFlow::Options others;  // every other flow, staggered ones too
  int staggered_flows = 0;       // joining one every 20 s from t = 20 s (Fig. 8b)
  double duration_s = 30.0;
};

// The one experiment driver core: N MeasuredFlows over the caller's path. The
// drivers (the legacy app behind ExecuteScenario, RunAccuracyExperiment and
// RunContentionExperiment) only build the path and read its counters. The
// order fixed here makes every run repeat event for event: the constructor
// creates flows 0..N-1 (pair, then MeasuredFlow) before any starts; Start()
// starts them in creation order, then arms the staggered joins, each flow
// created and started at its join time; Run() runs to the duration.
class FlowSet {
 public:
  // Makes one connected pair on the caller's path, data crossing it in the
  // client-to-server direction; the sockets must outlive the set.
  using MakePair = std::function<Testbed::Flow(const TcpSocket::Config& socket)>;

  FlowSet(EventLoop* loop, const FlowSetConfig& config, MakePair make_pair);
  // Pairs from Testbed::CreateFlow.
  FlowSet(Testbed* bed, const FlowSetConfig& config);
  FlowSet(const FlowSet&) = delete;
  FlowSet& operator=(const FlowSet&) = delete;

  void Start();
  void Run();

  // One row per flow in creation order, relative delay above `base_delay_s`.
  std::vector<FlowResult> Results(double base_delay_s) const;
  // Flow 0 must be measured.
  AccuracyRun FirstAccuracy() const;

 private:
  void AddFlow(const MeasuredFlow::Options& options);

  EventLoop* loop_;
  FlowSetConfig config_;
  MakePair make_pair_;
  std::vector<std::unique_ptr<MeasuredFlow>> flows_;
  FifoTimer joins_;  // one entry per staggered flow, in join order
};

}  // namespace element

#endif  // ELEMENT_SRC_APPS_MEASURED_FLOW_H_
