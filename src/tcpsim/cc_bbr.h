// BBR v1 (Cardwell et al. 2016), simplified: model-based congestion control
// built on a windowed-max bottleneck-bandwidth filter and a windowed-min RTT
// filter, with STARTUP / DRAIN / PROBE_BW / PROBE_RTT states and pacing.
// Figure 15 evaluates it (the paper used the Linux 4.12 implementation).

#ifndef ELEMENT_SRC_TCPSIM_CC_BBR_H_
#define ELEMENT_SRC_TCPSIM_CC_BBR_H_

#include <deque>

#include "src/tcpsim/congestion_control.h"

namespace element {

// Windowed max filter over a round-trip-count axis.
class WindowedMaxFilter {
 public:
  explicit WindowedMaxFilter(uint64_t window_length) : window_(window_length) {}

  void Update(double value, uint64_t round);
  double GetMax() const;

 private:
  struct Sample {
    double value;
    uint64_t round;
  };
  uint64_t window_;
  std::deque<Sample> samples_;  // decreasing values
};

class BbrCc : public CongestionControl {
 public:
  BbrCc() = default;

  void OnConnectionStart(SimTime now, uint32_t mss) override;
  void OnAck(const AckSample& sample) override;
  void OnLoss(SimTime now, uint64_t bytes_in_flight, uint32_t mss) override;
  void OnRetransmissionTimeout(SimTime now) override;

  double CwndSegments() const override;
  uint32_t SsthreshSegments() const override { return 0x7FFFFFFF; }
  std::optional<DataRate> PacingRate() const override;

  const char* mode_name() const;  // lint_sim: allow(test-only) -- observer

 private:
  enum class Mode { kStartup, kDrain, kProbeBw, kProbeRtt };

  double BdpBytes(double gain) const;
  void UpdateRound(const AckSample& sample);
  void CheckFullPipe(const AckSample& sample);
  void MaybeEnterOrExitProbeRtt(const AckSample& sample, bool min_rtt_expired);
  void AdvanceCyclePhase(const AckSample& sample);

  static constexpr double kHighGain = 2.885;  // 2/ln(2)
  static constexpr double kDrainGain = 1.0 / 2.885;
  static constexpr double kCwndGain = 2.0;
  static constexpr int kGainCycleLen = 8;
  static constexpr uint64_t kBtlBwWindowRounds = 10;

  uint32_t mss_ = 1448;
  Mode mode_ = Mode::kStartup;
  WindowedMaxFilter btl_bw_filter_{kBtlBwWindowRounds};  // bytes/sec

  TimeDelta min_rtt_ = TimeDelta::Infinite();
  SimTime min_rtt_stamp_;
  SimTime probe_rtt_done_;

  uint64_t round_count_ = 0;
  uint64_t next_round_delivered_ = 0;

  // Full-pipe detection for STARTUP exit.
  double full_bw_ = 0.0;
  int full_bw_count_ = 0;
  bool filled_pipe_ = false;

  double pacing_gain_ = kHighGain;
  double cwnd_gain_ = kHighGain;
  int cycle_index_ = 0;
  SimTime cycle_stamp_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_CC_BBR_H_
