#include "src/trace/ground_truth.h"

#include <algorithm>

namespace element {

bool GroundTruthTracer::LookupInRanges(const std::vector<Range>& ranges, uint64_t byte,
                                       SimTime* out) {
  // Ranges are contiguous with strictly increasing `end`; entry i covers
  // [prev_end, end). Binary search for the first end > byte.
  auto it = std::upper_bound(ranges.begin(), ranges.end(), byte,
                             [](uint64_t b, const Range& r) { return b < r.end; });
  if (it == ranges.end()) {
    return false;
  }
  *out = it->t;
  return true;
}

void GroundTruthTracer::OnRecord(const telemetry::TraceRecord& r) {
  switch (r.kind) {
    case telemetry::RecordKind::kAppWrite:
      OnAppWrite(r.u.range.begin, r.u.range.end, r.t);
      break;
    case telemetry::RecordKind::kTcpTransmit:
      OnTcpTransmit(r.u.range.begin, r.u.range.end, r.t,
                    (r.flags & telemetry::kFlagRetransmit) != 0);
      break;
    case telemetry::RecordKind::kTcpRxSegment:
      OnTcpRxSegment(r.u.range.begin, r.u.range.end, r.t,
                     (r.flags & telemetry::kFlagOutOfOrder) == 0);
      break;
    case telemetry::RecordKind::kAppRead:
      OnAppRead(r.u.range.begin, r.u.range.end, r.t);
      break;
    default:
      break;
  }
}

void GroundTruthTracer::OnAppWrite(uint64_t /*begin*/, uint64_t end, SimTime t) {
  if (writes_.empty() || end > writes_.back().end) {
    writes_.push_back({end, t});
  }
}

void GroundTruthTracer::OnTcpTransmit(uint64_t begin, uint64_t end, SimTime t,
                                      bool /*retransmit*/) {
  // Every transmission updates the last-tx map (the perf probe fires on each
  // tcp_transmit_skb; network delay pairs an arrival with its transmission).
  last_tx_[begin] = {end, t};

  // Sender delay uses the *first* transmission of each byte. After a
  // go-back-N rewind the socket may resend old bytes flagged fresh; the
  // `end > last` guard filters them.
  uint64_t last = first_tx_.empty() ? 0 : first_tx_.back().end;
  if (end <= last) {
    return;
  }
  uint64_t new_begin = std::max(begin, last);
  first_tx_.push_back({end, t});

  SimTime wt;
  if (t >= config_.record_from && WriteTimeOf(new_begin, &wt)) {
    double d = (t - wt).ToSeconds();
    sender_delay_.Add(d);
    if (config_.keep_time_series) {
      sender_delay_series_.Add(t, d);
    }
  }
}

void GroundTruthTracer::OnTcpRxSegment(uint64_t begin, uint64_t end, SimTime t,
                                       bool /*in_order*/) {
  arrivals_[begin] = {end, t};
  if (t < config_.record_from) {
    return;
  }
  // Pair the arrival with the latest transmission covering its first byte.
  auto it = last_tx_.upper_bound(begin);
  if (it != last_tx_.begin()) {
    --it;
    if (begin < it->second.end && it->second.t <= t) {
      network_delay_.Add((t - it->second.t).ToSeconds());
    }
  }
}

void GroundTruthTracer::OnAppRead(uint64_t begin, uint64_t end, SimTime t) {
  if (t < config_.record_from) {
    return;
  }
  // A read may span several arrival ranges; sample each range it consumes.
  uint64_t cursor = begin;
  while (cursor < end) {
    auto it = arrivals_.upper_bound(cursor);
    if (it == arrivals_.begin()) {
      break;
    }
    --it;
    if (cursor >= it->second.end) {
      break;
    }
    double d = (t - it->second.t).ToSeconds();
    receiver_delay_.Add(d);
    if (config_.keep_time_series) {
      receiver_delay_series_.Add(t, d);
    }
    SimTime wt;
    if (WriteTimeOf(cursor, &wt)) {
      end_to_end_delay_.Add((t - wt).ToSeconds());
    }
    cursor = it->second.end;
  }
}

bool GroundTruthTracer::WriteTimeOf(uint64_t byte, SimTime* out) const {
  return LookupInRanges(writes_, byte, out);
}

bool GroundTruthTracer::FirstTxTimeOf(uint64_t byte, SimTime* out) const {
  return LookupInRanges(first_tx_, byte, out);
}

bool GroundTruthTracer::ArrivalTimeOf(uint64_t byte, SimTime* out) const {
  auto it = arrivals_.upper_bound(byte);
  if (it == arrivals_.begin()) {
    return false;
  }
  --it;
  if (byte >= it->second.end) {
    return false;
  }
  *out = it->second.t;
  return true;
}

GroundTruthTracer::Composition GroundTruthTracer::MeanComposition() const {
  Composition c;
  c.sender_s = sender_delay_.mean();
  c.network_s = network_delay_.mean();
  c.receiver_s = receiver_delay_.mean();
  c.total_s = c.sender_s + c.network_s + c.receiver_s;
  return c;
}

}  // namespace element
