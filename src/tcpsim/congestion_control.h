// Pluggable congestion control, mirroring the Linux CC module interface at
// the granularity this simulation needs. Implementations: NewReno, Cubic
// (Linux default in the paper's testbed), Vegas, and BBR — the protocols
// Figure 15 compares.

#ifndef ELEMENT_SRC_TCPSIM_CONGESTION_CONTROL_H_
#define ELEMENT_SRC_TCPSIM_CONGESTION_CONTROL_H_

#include <memory>
#include <optional>
#include <string>

#include "src/common/data_rate.h"
#include "src/common/time.h"

namespace element {

struct AckSample {
  SimTime now;
  uint64_t acked_bytes = 0;       // newly ACKed by this ACK
  uint64_t bytes_in_flight = 0;   // after processing the ACK
  TimeDelta rtt = TimeDelta::Zero();  // this ACK's sample; Zero if invalid (Karn)
  TimeDelta srtt = TimeDelta::Zero();
  TimeDelta min_rtt = TimeDelta::Zero();
  uint64_t delivered_bytes = 0;   // cumulative delivered
  DataRate delivery_rate;         // rate sample; Zero if unavailable
  bool app_limited = false;
  bool in_recovery = false;
  uint32_t mss = 0;
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual void OnConnectionStart(SimTime now, uint32_t mss) {
    (void)now;
    (void)mss;
  }
  virtual void OnAck(const AckSample& sample) = 0;
  // Loss detected via duplicate ACKs (entering fast recovery) or an ECN echo.
  virtual void OnLoss(SimTime now, uint64_t bytes_in_flight, uint32_t mss) = 0;
  virtual void OnRetransmissionTimeout(SimTime now) = 0;
  virtual void OnPacketSent(SimTime now, uint64_t bytes_in_flight) {
    (void)now;
    (void)bytes_in_flight;
  }
  // RFC 2861 congestion-window validation: the application went idle for at
  // least an RTO; loss-based controllers decay their window toward the
  // restart window instead of bursting a stale cwnd into the network.
  virtual void OnApplicationIdle(SimTime now, TimeDelta idle_time, TimeDelta rto) {
    (void)now;
    (void)idle_time;
    (void)rto;
  }

  // Congestion window in segments (fractional internally; floor >= 2 applies
  // at the user).
  virtual double CwndSegments() const = 0;
  virtual uint32_t SsthreshSegments() const = 0;
  // Engaged pacing rate (BBR); nullopt = no pacing, window-limited only.
  virtual std::optional<DataRate> PacingRate() const { return std::nullopt; }
};

// Factory: "reno", "cubic", "vegas", "bbr".
std::unique_ptr<CongestionControl> MakeCongestionControl(const std::string& name);

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_CONGESTION_CONTROL_H_
