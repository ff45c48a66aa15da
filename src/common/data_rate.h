// Strong type for link / transfer rates, with helpers to convert between
// rates, byte counts, and transmission times.

#ifndef ELEMENT_SRC_COMMON_DATA_RATE_H_
#define ELEMENT_SRC_COMMON_DATA_RATE_H_

#include <compare>
#include <cstdint>

#include "src/common/time.h"

namespace element {

class DataRate {
 public:
  constexpr DataRate() = default;

  static constexpr DataRate BitsPerSecond(double bps) { return DataRate(bps); }
  static constexpr DataRate Mbps(double mbps) { return DataRate(mbps * 1e6); }
  static constexpr DataRate Gbps(double gbps) { return DataRate(gbps * 1e9); }
  static constexpr DataRate BytesPerSecond(double bytes_per_sec) {
    return DataRate(bytes_per_sec * 8.0);
  }
  static constexpr DataRate Zero() { return DataRate(0.0); }

  constexpr double bps() const { return bps_; }
  constexpr double ToMbps() const { return bps_ / 1e6; }
  constexpr double BytesPerSec() const { return bps_ / 8.0; }
  constexpr bool IsZero() const { return bps_ <= 0.0; }

  // Time to serialize `bytes` onto a link of this rate.
  constexpr TimeDelta TransmitTime(int64_t bytes) const {
    if (bps_ <= 0.0) {
      return TimeDelta::Infinite();
    }
    return TimeDelta::FromSeconds(static_cast<double>(bytes) * 8.0 / bps_);
  }

  constexpr DataRate operator*(double f) const { return DataRate(bps_ * f); }
  constexpr DataRate operator+(DataRate o) const { return DataRate(bps_ + o.bps_); }
  constexpr auto operator<=>(const DataRate&) const = default;

 private:
  explicit constexpr DataRate(double bps) : bps_(bps) {}
  double bps_ = 0.0;
};

// Rate observed from a byte count over an interval.
inline DataRate RateOver(int64_t bytes, TimeDelta interval) {
  if (interval <= TimeDelta::Zero()) {
    return DataRate::Zero();
  }
  return DataRate::BytesPerSecond(static_cast<double>(bytes) / interval.ToSeconds());
}

}  // namespace element

#endif  // ELEMENT_SRC_COMMON_DATA_RATE_H_
