// Strong time types for the discrete-event simulation.
//
// TimeDelta is a signed duration; SimTime is a point on the simulation's
// monotonic clock (nanoseconds since simulation start). Keeping them distinct
// prevents the classic "added two timestamps" family of bugs.

#ifndef ELEMENT_SRC_COMMON_TIME_H_
#define ELEMENT_SRC_COMMON_TIME_H_

#include <compare>
#include <cstdint>
#include <limits>

namespace element {

class TimeDelta {
 public:
  constexpr TimeDelta() = default;

  static constexpr TimeDelta FromNanos(int64_t ns) { return TimeDelta(ns); }
  static constexpr TimeDelta FromMicros(int64_t us) { return TimeDelta(us * 1000); }
  static constexpr TimeDelta FromMillis(int64_t ms) { return TimeDelta(ms * 1000000); }
  static constexpr TimeDelta FromSeconds(double sec) {
    return TimeDelta(static_cast<int64_t>(sec * 1e9));
  }
  static constexpr TimeDelta FromSecondsInt(int64_t sec) { return TimeDelta(sec * 1000000000); }
  static constexpr TimeDelta Zero() { return TimeDelta(0); }
  static constexpr TimeDelta Infinite() {
    return TimeDelta(std::numeric_limits<int64_t>::max());
  }

  constexpr int64_t nanos() const { return ns_; }
  constexpr int64_t ToMicros() const { return ns_ / 1000; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr bool IsZero() const { return ns_ == 0; }
  constexpr bool IsInfinite() const { return ns_ == std::numeric_limits<int64_t>::max(); }

  constexpr TimeDelta operator+(TimeDelta other) const { return TimeDelta(ns_ + other.ns_); }
  constexpr TimeDelta operator-(TimeDelta other) const { return TimeDelta(ns_ - other.ns_); }
  constexpr TimeDelta operator-() const { return TimeDelta(-ns_); }
  constexpr TimeDelta operator*(double factor) const {
    return TimeDelta(static_cast<int64_t>(static_cast<double>(ns_) * factor));
  }
  constexpr TimeDelta operator/(int64_t divisor) const { return TimeDelta(ns_ / divisor); }
  constexpr double operator/(TimeDelta other) const {
    return static_cast<double>(ns_) / static_cast<double>(other.ns_);
  }
  TimeDelta& operator+=(TimeDelta other) {
    ns_ += other.ns_;
    return *this;
  }
  TimeDelta& operator-=(TimeDelta other) {
    ns_ -= other.ns_;
    return *this;
  }

  constexpr auto operator<=>(const TimeDelta&) const = default;

 private:
  explicit constexpr TimeDelta(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

class SimTime {
 public:
  constexpr SimTime() = default;

  static constexpr SimTime FromNanos(int64_t ns) { return SimTime(ns); }
  static constexpr SimTime Zero() { return SimTime(0); }
  static constexpr SimTime Infinite() {
    return SimTime(std::numeric_limits<int64_t>::max());
  }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr bool IsInfinite() const { return ns_ == std::numeric_limits<int64_t>::max(); }

  constexpr SimTime operator+(TimeDelta d) const { return SimTime(ns_ + d.nanos()); }
  constexpr SimTime operator-(TimeDelta d) const { return SimTime(ns_ - d.nanos()); }
  constexpr TimeDelta operator-(SimTime other) const {
    return TimeDelta::FromNanos(ns_ - other.ns_);
  }
  SimTime& operator+=(TimeDelta d) {
    ns_ += d.nanos();
    return *this;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

 private:
  explicit constexpr SimTime(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

}  // namespace element

#endif  // ELEMENT_SRC_COMMON_TIME_H_
