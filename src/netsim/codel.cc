#include "src/netsim/codel.h"

#include <cmath>
#include <utility>

namespace element {
namespace {

constexpr TimeDelta kTarget = TimeDelta::FromMillis(5);
constexpr TimeDelta kInterval = TimeDelta::FromMillis(100);

}  // namespace

SimTime CoDelState::ControlLawNext(SimTime t) const {
  double scale = 1.0 / std::sqrt(static_cast<double>(count_ == 0 ? 1 : count_));
  return t + kInterval * scale;
}

bool CoDelState::ShouldDrop(TimeDelta sojourn, SimTime now, size_t queued_bytes) {
  // Track whether the sojourn time has stayed above target for an interval.
  bool ok_to_drop = false;
  if (sojourn < kTarget || queued_bytes <= kFullPacketBytes) {
    first_above_valid_ = false;
  } else {
    if (!first_above_valid_) {
      first_above_valid_ = true;
      first_above_time_ = now + kInterval;
    } else if (now >= first_above_time_) {
      ok_to_drop = true;
    }
  }

  if (dropping_) {
    if (!ok_to_drop) {
      dropping_ = false;
      return false;
    }
    if (now >= drop_next_) {
      ++count_;
      drop_next_ = ControlLawNext(drop_next_);
      return true;
    }
    return false;
  }

  if (ok_to_drop) {
    dropping_ = true;
    // If we recently exited the dropping state, resume near the previous drop
    // rate instead of restarting from 1 (RFC 8289 §5.4).
    uint32_t delta = count_ - last_count_;
    bool recently = (now - drop_next_) < kInterval * 16.0;
    count_ = (delta > 1 && recently) ? delta : 1;
    drop_next_ = ControlLawNext(now);
    last_count_ = count_;
    return true;
  }
  return false;
}

bool CoDel::Enqueue(Packet&& pkt, SimTime now) {
  ScopedConservationAudit audit(this);
  if (queue_.size() >= limit_packets_) {
    CountDropPreQueue(pkt, now);
    return false;
  }
  Admit(&queue_, std::move(pkt), now);
  return true;
}

std::optional<Packet> CoDel::Dequeue(SimTime now) {
  ScopedConservationAudit audit(this);
  return DequeueCoDel(&queue_, &state_, now, [](const Packet&) {});
}

}  // namespace element
