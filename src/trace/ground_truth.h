// Ground-truth delay measurement, the simulation analogue of the paper's
// modified `perf` kernel profiler (Section 4.3): tracepoints at the four
// layer boundaries give exact per-byte timestamps, from which we derive
//   sender system delay   = tcp_transmit_skb(first tx) - write()
//   network delay         = tcp_v4_do_rcv(arrival)     - first tx
//   receiver system delay = read()                     - arrival
//   end-to-end delay      = read()                     - write()

#ifndef ELEMENT_SRC_TRACE_GROUND_TRUTH_H_
#define ELEMENT_SRC_TRACE_GROUND_TRUTH_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/telemetry/record.h"

namespace element {

class GroundTruthTracer : public telemetry::RecordSink {
 public:
  struct Config {
    bool keep_time_series = true;
    // Samples are recorded only after this instant (skips handshake/start-up
    // transients when a bench wants steady state).
    SimTime record_from = SimTime::Zero();
  };

  GroundTruthTracer() : GroundTruthTracer(Config{}) {}
  explicit GroundTruthTracer(const Config& config) : config_(config) {}

  // Attach the same tracer to the telemetry of the sender socket and the
  // receiver socket of one flow. The four stack-boundary record kinds go to
  // the On* probes below; every other kind is ignored, so the tracer can sit
  // on a sink that also carries qdisc or delay-sample records.
  void OnRecord(const telemetry::TraceRecord& r) override;

  // The four probes, one per layer boundary. Byte ranges are half-open:
  // [begin, end).
  // Sender: bytes accepted into the TCP send buffer by a socket write.
  void OnAppWrite(uint64_t begin, uint64_t end, SimTime t);
  // Sender: bytes handed to the lower layers (tcp_transmit_skb).
  void OnTcpTransmit(uint64_t begin, uint64_t end, SimTime t, bool retransmit);
  // Receiver: data segment arrived at the TCP layer (tcp_v4_do_rcv).
  void OnTcpRxSegment(uint64_t begin, uint64_t end, SimTime t, bool in_order);
  // Receiver: bytes consumed from the receive buffer by a socket read.
  void OnAppRead(uint64_t begin, uint64_t end, SimTime t);

  // Delay sample sets (seconds).
  const SampleSet& sender_delay() const { return sender_delay_; }
  const SampleSet& network_delay() const { return network_delay_; }
  const SampleSet& receiver_delay() const { return receiver_delay_; }
  const SampleSet& end_to_end_delay() const { return end_to_end_delay_; }

  // Per-event time series (seconds), for Figure 6-style traces and for
  // interpolation against ELEMENT's periodic estimates.
  const TimeSeries& sender_delay_series() const { return sender_delay_series_; }
  const TimeSeries& receiver_delay_series() const { return receiver_delay_series_; }

  // Byte-time lookups (false if the byte has not reached that layer).
  bool WriteTimeOf(uint64_t byte, SimTime* out) const;
  bool FirstTxTimeOf(uint64_t byte, SimTime* out) const;
  bool ArrivalTimeOf(uint64_t byte, SimTime* out) const;

  struct Composition {
    double sender_s = 0.0;
    double network_s = 0.0;
    double receiver_s = 0.0;
    double total_s = 0.0;
  };
  // Mean composition of the end-to-end delay (Figures 2, 3, 15).
  Composition MeanComposition() const;

 private:
  struct Range {
    uint64_t end;
    SimTime t;
  };
  static bool LookupInRanges(const std::vector<Range>& ranges, uint64_t byte, SimTime* out);

  Config config_;

  std::vector<Range> writes_;    // contiguous, increasing `end`
  std::vector<Range> first_tx_;  // contiguous, increasing `end` (first tx only)
  std::map<uint64_t, Range> last_tx_;   // begin -> (end, t); updated on retransmit
  std::map<uint64_t, Range> arrivals_;  // begin -> (end, t); may arrive out of order

  SampleSet sender_delay_;
  SampleSet network_delay_;
  SampleSet receiver_delay_;
  SampleSet end_to_end_delay_;
  TimeSeries sender_delay_series_;
  TimeSeries receiver_delay_series_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TRACE_GROUND_TRUTH_H_
