// Accuracy scoring for ELEMENT's estimates against the kernel-profiler ground
// truth (Section 4.3): since ELEMENT only samples periodically, each estimate
// is compared with the ground-truth delay linearly interpolated at the
// estimate's timestamp; errors feed the CDFs of Figures 6c, 7, and 8.

#ifndef ELEMENT_SRC_ELEMENT_ESTIMATION_ERROR_H_
#define ELEMENT_SRC_ELEMENT_ESTIMATION_ERROR_H_

#include "src/common/ring_fifo.h"
#include "src/common/stats.h"
#include "src/common/time.h"

namespace element {

struct AccuracyResult {
  SampleSet errors;               // |estimate - ground truth| per sample, seconds
  double median_abs_error_s = 0.0;
  double mean_ground_truth_s = 0.0;
  // 1 - median|err| / max(mean ground truth, 25 ms), clamped to [0, 1] — the
  // scalar summary for the paper's ">90% accuracy" claim. The median keeps
  // the summary robust to the algorithm's rare-but-large stale-record spikes
  // (an inherent artifact of the segs_in*mss overestimate across idle
  // periods); the full error distribution is in `errors` and is what the
  // paper's CDF figures (6c, 7, 8) report.
  double accuracy = 0.0;
  size_t compared_samples = 0;
};

// Scores estimates against ground truth while both arrive, so neither has to
// be stored. Each estimate waits for the first truth point strictly after it
// and is then compared with the truth interpolated at its time, exactly as
// TimeSeries::InterpolateAt would on the whole truth series (same rule, same
// expression). The scorer holds the waiting estimates and four truth points:
// the first, the latest, the first at the latest time, and the one before
// that.
class StreamingScorer {
 public:
  // Inputs must not go back in time, across both streams (DCHECK).
  void OnEstimate(SimTime t, double v);
  void OnTruth(SimTime t, double v);

  // The score as if the run ended now: estimates still waiting take the
  // first truth point if at or before it, else the last. With no truth at
  // all every estimate is skipped.
  AccuracyResult Result() const;

 private:
  // The truth at `t` for an estimate strictly before `next`, the truth point
  // arriving now.
  double TruthBefore(SimTime t, const TimeSeries::Point& next) const;

  SampleSet errors_;
  double truth_sum_ = 0.0;
  RingFifo<TimeSeries::Point> waiting_;
  SimTime latest_ = SimTime::Zero();  // latest input of either kind
  bool has_truth_ = false;
  TimeSeries::Point first_{};
  TimeSeries::Point last_{};
  TimeSeries::Point group_first_{};   // first truth point at last_.t
  TimeSeries::Point before_group_{};  // the one before it, if any
};

// Scores stored series: a merge-walk that feeds a StreamingScorer in time
// order.
AccuracyResult ScoreEstimates(const TimeSeries& estimates, const TimeSeries& ground_truth);

}  // namespace element

#endif  // ELEMENT_SRC_ELEMENT_ESTIMATION_ERROR_H_
