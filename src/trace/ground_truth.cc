#include "src/trace/ground_truth.h"

#include <algorithm>

#include "src/element/estimation_error.h"

namespace element {

namespace {

// Index of the first entry of `table` that is `past` the key, where `past`
// is false on a prefix of the table and true after it. `*cursor` holds the
// answer of the previous call on this table (moved down when a prefix is
// trimmed); the tables stay sorted, so when the entry below it is not past
// the key, the answer is no lower and is usually a step or two up.
// Otherwise, or when a few steps do not reach it, a binary search finds it.
// Leaves the answer in `*cursor`.
template <typename Table, typename Past>
size_t Seek(const Table& table, size_t* cursor, Past past) {
  constexpr size_t kSteps = 4;
  size_t i = *cursor;
  if (i > 0 && past(table[i - 1])) {
    i = 0;
  }
  size_t stop = std::min(table.size(), i + kSteps);
  while (i < stop && !past(table[i])) {
    ++i;
  }
  if (i == stop && i < table.size()) {
    i = static_cast<size_t>(
        std::partition_point(table.begin() + static_cast<std::ptrdiff_t>(i), table.end(),
                             [&past](const auto& entry) { return !past(entry); }) -
        table.begin());
  }
  *cursor = i;
  return i;
}

// Erases the first `dead` entries of `table` once they are at least half of
// it, so that each entry costs amortized O(1) to erase. Returns whether it
// erased; the caller then moves its cursors down by `dead`.
template <typename Table>
bool TrimDeadPrefix(Table* table, size_t dead) {
  if (dead == 0 || 2 * dead < table->size()) {
    return false;
  }
  table->erase(table->begin(), table->begin() + static_cast<std::ptrdiff_t>(dead));
  return true;
}

}  // namespace

bool GroundTruthTracer::LookupInRanges(const std::vector<Range>& ranges, size_t* cursor,
                                       uint64_t byte, SimTime* out) {
  // Ranges are contiguous with strictly increasing `end`; entry i covers
  // [prev_end, end). Find the first end > byte.
  size_t i = Seek(ranges, cursor, [byte](const Range& r) { return r.end > byte; });
  if (i == ranges.size()) {
    return false;
  }
  *out = ranges[i].t;
  return true;
}

void GroundTruthTracer::Upsert(SpanTable* table, uint64_t begin, uint64_t end, SimTime t) {
  if (table->empty() || begin > table->back().begin) {
    table->push_back({begin, end, t});
    return;
  }
  auto it = std::lower_bound(table->begin(), table->end(), begin,
                             [](const Span& s, uint64_t b) { return s.begin < b; });
  if (it->begin == begin) {
    *it = {begin, end, t};
  } else {
    table->insert(it, {begin, end, t});
  }
}

size_t GroundTruthTracer::PastFloor(const SpanTable& table, size_t* cursor, uint64_t byte) {
  return Seek(table, cursor, [byte](const Span& s) { return s.begin > byte; });
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
  Upsert(&last_tx_, begin, end, t);

  // Sender delay uses the *first* transmission of each byte. The tracer
  // ignores the retransmit flag: this guard is what filters retransmissions,
  // flagged or not, since none of them reaches past the highest first one.
  if (end <= first_tx_end_) {
    return;
  }
  uint64_t new_begin = std::max(begin, first_tx_end_);
  first_tx_end_ = end;

  SimTime wt;
  if (t >= config_.record_from && LookupInRanges(writes_, &tx_write_cursor_, new_begin, &wt)) {
    double d = (t - wt).ToSeconds();
    sender_delay_.Add(d);
    if (config_.keep_time_series) {
      sender_delay_series_.Add(t, d);
    }
    if (sender_scorer_ != nullptr) {
      sender_scorer_->OnTruth(t, d);
    }
    TrimWrites();
  }
}

void GroundTruthTracer::OnTcpRxSegment(uint64_t begin, uint64_t end, SimTime t,
                                       bool /*in_order*/) {
  Upsert(&arrivals_, begin, end, t);
  if (t < config_.record_from) {
    return;
  }
  // Pair the arrival with the latest transmission covering its first byte.
  size_t past = PastFloor(last_tx_, &rx_tx_cursor_, begin);
  if (past != 0) {
    const Span& tx = last_tx_[past - 1];
    if (begin < tx.end && tx.t <= t) {
      network_delay_.Add((t - tx.t).ToSeconds());
    }
  }
}

void GroundTruthTracer::OnAppRead(uint64_t begin, uint64_t end, SimTime t) {
  if (t < config_.record_from) {
    return;
  }
  // A read may span several arrival ranges; sample each range it consumes.
  uint64_t byte = begin;
  while (byte < end) {
    size_t past = PastFloor(arrivals_, &read_arrival_cursor_, byte);
    if (past == 0) {
      break;
    }
    const Span& arrival = arrivals_[past - 1];
    if (byte >= arrival.end) {
      break;
    }
    double d = (t - arrival.t).ToSeconds();
    receiver_delay_.Add(d);
    if (config_.keep_time_series) {
      receiver_delay_series_.Add(t, d);
    }
    if (receiver_scorer_ != nullptr) {
      receiver_scorer_->OnTruth(t, d);
    }
    SimTime wt;
    if (LookupInRanges(writes_, &read_write_cursor_, byte, &wt)) {
      end_to_end_delay_.Add((t - wt).ToSeconds());
    }
    byte = arrival.end;
  }
  // The floor entry stays: the next read may begin inside it.
  size_t dead = read_arrival_cursor_ > 0 ? read_arrival_cursor_ - 1 : 0;
  if (TrimDeadPrefix(&arrivals_, dead)) {
    read_arrival_cursor_ -= dead;
  }
  TrimWrites();
}

void GroundTruthTracer::TrimWrites() {
  size_t dead = std::min(tx_write_cursor_, read_write_cursor_);
  uint64_t floor = dead > 0 ? writes_[dead - 1].end : writes_floor_;
  if (TrimDeadPrefix(&writes_, dead)) {
    writes_floor_ = floor;
    tx_write_cursor_ -= dead;
    read_write_cursor_ -= dead;
  }
}

bool GroundTruthTracer::WriteTimeOf(uint64_t byte, SimTime* out) const {
  size_t cursor = 0;
  return byte >= writes_floor_ && LookupInRanges(writes_, &cursor, byte, out);
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
