#include "src/element/delay_estimator.h"

#include <cmath>

#include "src/common/check.h"

namespace element {

bool DelayDecompositionConserves(double sender_s, double network_s, double receiver_s,
                                 double end_to_end_s, double rel_tolerance,
                                 double abs_slack_s) {
  double reconstructed = sender_s + network_s + receiver_s;
  double budget = rel_tolerance * end_to_end_s + abs_slack_s;
  return std::abs(reconstructed - end_to_end_s) <= budget;
}

void AuditDelayDecomposition(double sender_s, double network_s, double receiver_s,
                             double end_to_end_s, double rel_tolerance,
                             double abs_slack_s) {
  ELEMENT_AUDIT(DelayDecompositionConserves(sender_s, network_s, receiver_s, end_to_end_s,
                                            rel_tolerance, abs_slack_s))
      << "delay decomposition does not conserve: sender=" << sender_s
      << "s network=" << network_s << "s receiver=" << receiver_s
      << "s sum=" << sender_s + network_s + receiver_s
      << "s end_to_end=" << end_to_end_s << "s";
}

uint64_t SenderDelayEstimator::EstimateSentBytes(const TcpInfoData& info) {
  return info.tcpi_bytes_acked +
         static_cast<uint64_t>(info.tcpi_unacked) * info.tcpi_snd_mss;
}

void SenderDelayEstimator::OnAppSend(uint64_t cumulative_bytes, SimTime t) {
  ELEMENT_AUDIT(records_.empty() || cumulative_bytes >= records_.front().bytes)
      << "app write positions regressed: " << cumulative_bytes << " after "
      << records_.front().bytes;
  records_.push_front({cumulative_bytes, t});
}

uint64_t SenderDelayEstimator::EstimateSentBytesForMatching(const TcpInfoData& info) const {
  if (formula_ == SentBytesFormula::kNotsentBased && !records_.empty()) {
    uint64_t latest_write = records_.front().bytes;
    return latest_write > info.tcpi_notsent_bytes ? latest_write - info.tcpi_notsent_bytes : 0;
  }
  return EstimateSentBytes(info);
}

void SenderDelayEstimator::OnTcpInfoSample(const TcpInfoData& info, SimTime t) {
  uint64_t best = EstimateSentBytesForMatching(info);
  // Algorithm 1: walk from the back (oldest); every record whose cumulative
  // byte count does not exceed the estimated sent bytes has fully left the
  // TCP layer — its buffer delay is T - sendTime.
  while (!records_.empty() && records_.back().bytes <= best) {
    TimeDelta d = t - records_.back().send_time;
    ELEMENT_AUDIT(d >= TimeDelta::Zero())
        << "negative sender delay: sample at " << t.nanos() << "ns before write at "
        << records_.back().send_time.nanos() << "ns";
    records_.pop_back();
    latest_delay_ = d;
    has_estimate_ = true;
    double ds = d.ToSeconds();
    samples_.Add(ds);
    series_.Add(t, ds);
    if (telemetry_.recording()) {
      telemetry_.EmitAlways(telemetry::TraceRecord::Delay(telemetry_.flow_id(), t, ds, 0.0,
                                                          0.0, telemetry::kFlagEstimate));
    }
    if (sink_) {
      DelayReport report;
      report.t = t;
      report.delay = d;
      report.snd_cwnd = info.tcpi_snd_cwnd;
      report.snd_ssthresh = info.tcpi_snd_ssthresh;
      report.rtt_us = info.tcpi_rtt_us;
      sink_(report);
    }
  }
}

uint64_t ReceiverDelayEstimator::EstimateReceivedBytes(const TcpInfoData& info) {
  return info.tcpi_segs_in * static_cast<uint64_t>(info.tcpi_rcv_mss);
}

void ReceiverDelayEstimator::OnTcpInfoSample(const TcpInfoData& info, SimTime t) {
  uint64_t best = EstimateReceivedBytes(info);
  if (best > prev_estimate_) {
    prev_estimate_ = best;
    records_.push_front({best, t});
  }
}

void ReceiverDelayEstimator::OnAppReceive(uint64_t cumulative_bytes, SimTime t,
                                          const TcpInfoData& info) {
  // Algorithm 2: discard records fully consumed by the application; the first
  // record still ahead of the read position timestamps the bytes being read.
  while (!records_.empty()) {
    if (records_.back().bytes <= cumulative_bytes) {
      records_.pop_back();
      continue;
    }
    TimeDelta d = t - records_.back().recv_time;
    ELEMENT_AUDIT(d >= TimeDelta::Zero())
        << "negative receiver delay: read at " << t.nanos() << "ns before TCP receive at "
        << records_.back().recv_time.nanos() << "ns";
    latest_delay_ = d;
    has_estimate_ = true;
    double ds = d.ToSeconds();
    samples_.Add(ds);
    series_.Add(t, ds);
    if (telemetry_.recording()) {
      telemetry_.EmitAlways(telemetry::TraceRecord::Delay(telemetry_.flow_id(), t, 0.0, 0.0,
                                                          ds, telemetry::kFlagEstimate));
    }
    if (sink_) {
      DelayReport report;
      report.t = t;
      report.delay = d;
      report.snd_cwnd = info.tcpi_snd_cwnd;
      report.snd_ssthresh = info.tcpi_snd_ssthresh;
      report.rtt_us = info.tcpi_rtt_us;
      sink_(report);
    }
    break;
  }
}

}  // namespace element
