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
  // Reads come in byte order, as a socket's do: the tracer drops the
  // arrivals and writes they have passed.
  void OnAppRead(uint64_t begin, uint64_t end, SimTime t);

  // Count and sum of each delay's samples (seconds); the samples themselves
  // are not kept.
  const RunningSum& sender_delay() const { return sender_delay_; }
  const RunningSum& network_delay() const { return network_delay_; }
  const RunningSum& receiver_delay() const { return receiver_delay_; }
  const RunningSum& end_to_end_delay() const { return end_to_end_delay_; }

  // Per-event time series (seconds), for Figure 6-style traces and for
  // interpolation against ELEMENT's periodic estimates. They hold the
  // sender and receiver delay samples in the order they were added (for
  // their spread or quantiles), unless `keep_time_series` is off.
  const TimeSeries& sender_delay_series() const { return sender_delay_series_; }
  const TimeSeries& receiver_delay_series() const { return receiver_delay_series_; }

  // Also streams each point of the two series, kept or not, as a truth point
  // into `sender` and `receiver` (either may be null). Call before the run.
  void ScoreInto(StreamingScorer* sender, StreamingScorer* receiver) {
    sender_scorer_ = sender;
    receiver_scorer_ = receiver;
  }

  // Write time of `byte`: false if it has not been written, or if it lies
  // below the live window. A write range leaves the window once both the
  // transmit and the read lookups have moved past it.
  bool WriteTimeOf(uint64_t byte, SimTime* out) const;

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

  // Drops the write ranges below both lookups' cursors, in amortized O(1).
  void TrimWrites();

  Config config_;

  // Write ranges still ahead of a lookup: contiguous, increasing `end`.
  // Both lookups into it only move up, so ranges below both cursors go.
  std::vector<Range> writes_;
  uint64_t writes_floor_ = 0;  // bytes below it have left writes_
  uint64_t first_tx_end_ = 0;  // end of the highest first transmission
  // Every transmission; a retransmission overwrites its range's entry. Kept
  // whole: an arrival below the read point (a spurious retransmission's)
  // still pairs with its transmission.
  SpanTable last_tx_;
  // Arrivals from the read floor up. In-order arrivals append; an
  // out-of-order range or a hole fill below it inserts, shifting only the
  // entries of about one window. Reads only move up, so entries below the
  // floor entry (the last with begin <= the read point, which a later read
  // may still be in) are never read again and go.
  SpanTable arrivals_;

  // Where each per-record lookup last landed. Transmissions, arrivals and
  // reads each move up through the byte space, so the next answer is
  // usually a step or two above the last one.
  size_t tx_write_cursor_ = 0;       // writes_, from OnTcpTransmit
  size_t rx_tx_cursor_ = 0;          // last_tx_, from OnTcpRxSegment
  size_t read_arrival_cursor_ = 0;   // arrivals_, from OnAppRead
  size_t read_write_cursor_ = 0;     // writes_, from OnAppRead

  RunningSum sender_delay_;
  RunningSum network_delay_;
  RunningSum receiver_delay_;
  RunningSum end_to_end_delay_;
  TimeSeries sender_delay_series_;
  TimeSeries receiver_delay_series_;
  StreamingScorer* sender_scorer_ = nullptr;
  StreamingScorer* receiver_scorer_ = nullptr;
};

}  // namespace element

#endif  // ELEMENT_SRC_TRACE_GROUND_TRUTH_H_
