// ELEMENT's user-level delay estimators — Algorithms 1 and 2 of the paper.
//
// The sender estimator matches application write() records against the bytes
// estimated (from tcp_info) to have left the TCP layer:
//     B_est = tcpi_bytes_acked + tcpi_unacked * tcpi_snd_mss
// The receiver estimator matches TCP-layer receive estimates
//     B_est = tcpi_segs_in * tcpi_rcv_mss
// against application read() records. Both keep the paper's linked-list
// structure: records are pushed at the front and consumed from the back.

#ifndef ELEMENT_SRC_ELEMENT_DELAY_ESTIMATOR_H_
#define ELEMENT_SRC_ELEMENT_DELAY_ESTIMATOR_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/tcpsim/tcp_info.h"
#include "src/telemetry/spine.h"

namespace element {

// One row of ELEMENT's diagnosis output (the Print statement in Algorithms
// 1 and 2): elapsed time, estimated buffer delay, and TCP state.
struct DelayReport {
  SimTime t;
  TimeDelta delay;
  uint32_t snd_cwnd = 0;
  uint32_t snd_ssthresh = 0;
  uint32_t rtt_us = 0;
};

// Delay-decomposition conservation, the audit behind the paper's Table 1 /
// Figure 2 claim: the sender, network, and receiver components must
// reconstruct the measured end-to-end delay. Means over one run satisfy
//   sender + network + receiver ≈ end_to_end
// within a relative tolerance (decomposition boundaries timestamp slightly
// different bytes) plus an absolute slack for near-zero delays.
bool DelayDecompositionConserves(double sender_s, double network_s, double receiver_s,
                                 double end_to_end_s, double rel_tolerance = 0.05,
                                 double abs_slack_s = 2e-3);

// ELEMENT_AUDIT wrapper (compiled out in Release): aborts with the four
// components when the decomposition does not conserve.
void AuditDelayDecomposition(double sender_s, double network_s, double receiver_s,
                             double end_to_end_s, double rel_tolerance = 0.05,
                             double abs_slack_s = 2e-3);

class SenderDelayEstimator {
 public:
  using ReportSink = std::function<void(const DelayReport&)>;

  // How to estimate the bytes that have left the TCP layer.
  enum class SentBytesFormula {
    // The paper's: bytes_acked + unacked * snd_mss (works on any kernel with
    // TCP_INFO; overestimates by sub-MSS tails).
    kAckedPlusUnacked,
    // Modern alternative: latest app write position - tcpi_notsent_bytes
    // (exact, but needs the tcpi_notsent_bytes field, Linux >= 4.6). Used by
    // the formula ablation bench.
    kNotsentBased,
  };

  SenderDelayEstimator() = default;
  explicit SenderDelayEstimator(SentBytesFormula formula) : formula_(formula) {}

  // Data-sending-thread half: the application wrote data; `cumulative_bytes`
  // is the total bytes written so far and `t` the time the write returned.
  void OnAppSend(uint64_t cumulative_bytes, SimTime t);

  // tcp_info-tracking-thread half: one periodic sample. Emits zero or more
  // DelayReports through the sink.
  void OnTcpInfoSample(const TcpInfoData& info, SimTime t);

  // The paper's estimate of bytes that have left the TCP layer.
  static uint64_t EstimateSentBytes(const TcpInfoData& info);
  // Estimate under the configured formula (instance method: the notsent
  // variant needs the latest recorded write position).
  uint64_t EstimateSentBytesForMatching(const TcpInfoData& info) const;

  void set_report_sink(ReportSink sink) { sink_ = std::move(sink); }

  // Latest estimated send-buffer delay (EWMA-free raw value).
  TimeDelta latest_delay() const { return latest_delay_; }
  bool has_estimate() const { return has_estimate_; }
  const SampleSet& delay_samples() const { return samples_; }
  const TimeSeries& delay_series() const { return series_; }
  size_t pending_records() const { return records_.size(); }

  // Binds to the run's spine: each estimate is emitted as a kDelaySample
  // record (kFlagEstimate, sender_s component) tagged with `flow_id`.
  void BindTelemetry(telemetry::TelemetrySpine* spine, uint64_t flow_id) {
    telemetry_.Bind(spine, flow_id);
  }
  telemetry::FlowTelemetry& telemetry() { return telemetry_; }

 private:
  struct SendRecord {
    uint64_t bytes;  // cumulative bytes written when the record was made
    SimTime send_time;
  };

  SentBytesFormula formula_ = SentBytesFormula::kAckedPlusUnacked;
  std::deque<SendRecord> records_;  // back = oldest
  ReportSink sink_;
  TimeDelta latest_delay_ = TimeDelta::Zero();
  bool has_estimate_ = false;
  SampleSet samples_;
  TimeSeries series_;
  telemetry::FlowTelemetry telemetry_;
};

class ReceiverDelayEstimator {
 public:
  using ReportSink = std::function<void(const DelayReport&)>;

  ReceiverDelayEstimator() = default;

  // tcp_info-tracking-thread half: record TCP-layer receive progress.
  void OnTcpInfoSample(const TcpInfoData& info, SimTime t);

  // Data-receiving-thread half: the application read data; emits at most one
  // DelayReport per call (the record covering the read position).
  void OnAppReceive(uint64_t cumulative_bytes, SimTime t, const TcpInfoData& info);

  static uint64_t EstimateReceivedBytes(const TcpInfoData& info);

  void set_report_sink(ReportSink sink) { sink_ = std::move(sink); }
  TimeDelta latest_delay() const { return latest_delay_; }
  bool has_estimate() const { return has_estimate_; }
  const SampleSet& delay_samples() const { return samples_; }
  const TimeSeries& delay_series() const { return series_; }
  size_t pending_records() const { return records_.size(); }

  // Same telemetry contract as the sender estimator (receiver_s component in
  // the emitted kDelaySample records).
  void BindTelemetry(telemetry::TelemetrySpine* spine, uint64_t flow_id) {
    telemetry_.Bind(spine, flow_id);
  }
  telemetry::FlowTelemetry& telemetry() { return telemetry_; }

 private:
  struct RecvRecord {
    uint64_t bytes;  // estimated cumulative bytes received at the TCP layer
    SimTime recv_time;
  };

  std::deque<RecvRecord> records_;  // back = oldest
  uint64_t prev_estimate_ = 0;
  ReportSink sink_;
  TimeDelta latest_delay_ = TimeDelta::Zero();
  bool has_estimate_ = false;
  SampleSet samples_;
  TimeSeries series_;
  telemetry::FlowTelemetry telemetry_;
};

}  // namespace element

#endif  // ELEMENT_SRC_ELEMENT_DELAY_ESTIMATOR_H_
