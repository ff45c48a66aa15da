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
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/telemetry/record.h"

namespace element {

class StreamingScorer;

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

  // Also streams each point of the two series, kept or not, as a truth point
  // into `sender` and `receiver` (either may be null). Call before the run.
  void ScoreInto(StreamingScorer* sender, StreamingScorer* receiver) {
    sender_scorer_ = sender;
    receiver_scorer_ = receiver;
  }

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
  // The entry covering `byte`, searched from `*cursor` (see Seek).
  static bool LookupInRanges(const std::vector<Range>& ranges, size_t* cursor, uint64_t byte,
                             SimTime* out);

  // A byte range [begin, end) stamped at t, in a table sorted by `begin`
  // with one entry per `begin`.
  struct Span {
    uint64_t begin;
    uint64_t end;
    SimTime t;
  };
  using SpanTable = std::vector<Span>;
  // Sets the entry for `begin`, inserting it in order. Appends when `begin`
  // is above the last entry, the common case.
  static void Upsert(SpanTable* table, uint64_t begin, uint64_t end, SimTime t);
  // Index of the first entry whose begin is above `byte`, searched from
  // `*cursor` (see Seek). The entry before it, if any, is the floor for
  // `byte`: the last with begin <= byte.
  static size_t PastFloor(const SpanTable& table, size_t* cursor, uint64_t byte);

  Config config_;

  std::vector<Range> writes_;    // contiguous, increasing `end`
  std::vector<Range> first_tx_;  // contiguous, increasing `end` (first tx only)
  // Every transmission; a retransmission overwrites its range's entry.
  SpanTable last_tx_;
  // Every arrival. In-order arrivals append; an out-of-order range or a hole
  // fill below it inserts, shifting only the entries of about one window.
  SpanTable arrivals_;

  // Where each per-record lookup last landed. Transmissions, arrivals and
  // reads each move up through the byte space, so the next answer is
  // usually a step or two above the last one.
  size_t tx_write_cursor_ = 0;       // writes_, from OnTcpTransmit
  size_t rx_tx_cursor_ = 0;          // last_tx_, from OnTcpRxSegment
  size_t read_arrival_cursor_ = 0;   // arrivals_, from OnAppRead
  size_t read_write_cursor_ = 0;     // writes_, from OnAppRead

  SampleSet sender_delay_;
  SampleSet network_delay_;
  SampleSet receiver_delay_;
  SampleSet end_to_end_delay_;
  TimeSeries sender_delay_series_;
  TimeSeries receiver_delay_series_;
  StreamingScorer* sender_scorer_ = nullptr;
  StreamingScorer* receiver_scorer_ = nullptr;
};

}  // namespace element

#endif  // ELEMENT_SRC_TRACE_GROUND_TRUTH_H_
