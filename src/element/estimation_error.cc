#include "src/element/estimation_error.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace element {

void StreamingScorer::OnEstimate(SimTime t, double v) {
  ELEMENT_DCHECK(t >= latest_) << "estimate at " << t.nanos() << "ns after input at "
                               << latest_.nanos() << "ns";
  latest_ = t;
  waiting_.push_back({t, v});
}

void StreamingScorer::OnTruth(SimTime t, double v) {
  ELEMENT_DCHECK(t >= latest_) << "truth at " << t.nanos() << "ns after input at "
                               << latest_.nanos() << "ns";
  latest_ = t;
  TimeSeries::Point point{t, v};
  while (!waiting_.empty() && waiting_.front().t < t) {
    const TimeSeries::Point& estimate = waiting_.front();
    double truth = TruthBefore(estimate.t, point);
    errors_.Add(std::abs(estimate.v - truth));
    truth_sum_ += truth;
    waiting_.pop_front();
  }
  if (!has_truth_) {
    has_truth_ = true;
    first_ = point;
    group_first_ = point;
  } else if (t > last_.t) {
    before_group_ = last_;
    group_first_ = point;
  }
  last_ = point;
}

double StreamingScorer::TruthBefore(SimTime t, const TimeSeries::Point& next) const {
  // Every waiting estimate is at or after last_.t, so InterpolateAt's
  // lower_bound lands on the group at last_.t when the estimate shares its
  // time, and on `next` otherwise.
  if (!has_truth_) {
    return next.v;
  }
  if (t <= first_.t) {
    return first_.v;
  }
  if (t == last_.t) {
    return TimeSeries::Interpolate(before_group_, group_first_, t);
  }
  return TimeSeries::Interpolate(last_, next, t);
}

AccuracyResult StreamingScorer::Result() const {
  AccuracyResult result;
  // Sized once: appending the waiting estimates to a copy would double it.
  result.errors.Reserve(errors_.count() + (has_truth_ ? waiting_.size() : 0));
  result.errors.Merge(errors_);
  double truth_sum = truth_sum_;
  if (has_truth_) {
    for (const TimeSeries::Point& estimate : waiting_) {
      double truth = estimate.t <= first_.t ? first_.v : last_.v;
      result.errors.Add(std::abs(estimate.v - truth));
      truth_sum += truth;
    }
  }
  result.compared_samples = result.errors.count();
  if (result.compared_samples == 0) {
    return result;
  }
  result.median_abs_error_s = result.errors.Median();
  result.mean_ground_truth_s = truth_sum / static_cast<double>(result.compared_samples);
  // Relative accuracy with an absolute floor: ELEMENT samples every ~10 ms,
  // so when the true delay is itself tiny (e.g. an idle receiver), errors are
  // judged against the 25 ms latency scale the paper's algorithms target
  // rather than against a near-zero mean.
  constexpr double kDenomFloorS = 0.025;
  double denom = std::max(result.mean_ground_truth_s, kDenomFloorS);
  result.accuracy = std::clamp(1.0 - result.median_abs_error_s / denom, 0.0, 1.0);
  return result;
}

AccuracyResult ScoreEstimates(const TimeSeries& estimates, const TimeSeries& ground_truth) {
  StreamingScorer scorer;
  const std::vector<TimeSeries::Point>& truth = ground_truth.points();
  size_t next = 0;
  for (const TimeSeries::Point& estimate : estimates.points()) {
    for (; next < truth.size() && truth[next].t <= estimate.t; ++next) {
      scorer.OnTruth(truth[next].t, truth[next].v);
    }
    scorer.OnEstimate(estimate.t, estimate.v);
  }
  for (; next < truth.size(); ++next) {
    scorer.OnTruth(truth[next].t, truth[next].v);
  }
  return scorer.Result();
}

}  // namespace element
