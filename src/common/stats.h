// Statistics containers used by the trace/accuracy machinery and by the
// benchmark harnesses: streaming moments (Welford), quantile/CDF sample sets,
// and timestamped series.

#ifndef ELEMENT_SRC_COMMON_STATS_H_
#define ELEMENT_SRC_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace element {

// Streaming mean / variance / min / max (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double Variance() const;
  double Stdev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }  // lint_sim: allow(test-only) -- observer

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Count and sum of samples, added in insertion order: mean() has the same
// bits as SampleSet::mean() over the same samples, without storing them
// (RunningStats::mean() is Welford's, whose bits differ).
class RunningSum {
 public:
  void Add(double x) {
    sum_ += x;
    ++count_;
  }

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double sum_ = 0.0;
};

// Stores raw samples; answers quantile queries and prints CDF rows.
class SampleSet {
 public:
  void Add(double x);
  // Appends all of `other`'s samples (fleet workers each fill their own set;
  // the coordinator merges in a fixed order so results stay deterministic).
  void Merge(const SampleSet& other);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double Stdev() const;
  double min() const;
  double max() const;
  // q in [0, 1]; linear interpolation between order statistics. Querying an
  // empty set is a caller bug (DCHECK) but returns a defined 0.0 in release.
  double Quantile(double q) const;
  // Quantile(0.5), bit for bit, but it selects the two middle order
  // statistics in O(n) instead of sorting.
  double Median() const;

  const std::vector<double>& samples() const { return samples_; }

  // "q value" rows at the given quantiles, for figure reproduction output.
  std::string CdfRows(const std::vector<double>& quantiles, const std::string& label) const;

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// Log-scale histogram with one geometry: 32 logarithmic bins per decade
// spanning [1 us, 1000 s), plus underflow/overflow counters and
// exactly-tracked count/sum/min/max. Two histograms Merge() by adding bin
// counts, which is associative and commutative — the property the fleet
// runner relies on to aggregate per-worker delay decompositions into
// fleet-wide p50/p95/p99 without storing raw samples.
//
// The geometry resolves quantiles to ~7.5% relative error across every delay
// and error magnitude the simulator produces (sub-millisecond LAN delays
// through multi-second bufferbloat).
//
// Storage is a window: only the bins from the lowest to the highest one
// filled so far, plus the index of the first. A default-constructed
// histogram allocates nothing, a one-sample histogram holds one bin, and a
// window never grows past the geometry's bin count. Every bin outside the
// window is zero, so counts, quantiles and merges are those of the dense
// form, bit for bit.
class Histogram {
 public:
  void Add(double x);
  // Adds `other`'s contents.
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }  // lint_sim: allow(test-only) -- observer
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  // q in [0, 1]; geometric interpolation inside the selected bin, clamped to
  // the exact [min, max] observed. Empty-input contract matches
  // SampleSet::Quantile (DCHECK + 0.0).
  double Quantile(double q) const;

  // Every bin of the geometry, zeros outside the window included.
  std::vector<uint64_t> bins() const;  // lint_sim: allow(test-only) -- observer
  uint64_t underflow() const {  // lint_sim: allow(test-only) -- observer
    return underflow_;
  }
  uint64_t overflow() const {  // lint_sim: allow(test-only) -- observer
    return overflow_;
  }
  // Lower edge of bin i (i == the geometry's bin count yields the ceiling).
  double BinLowerEdge(size_t i) const;

 private:
  // Widens the window to cover bins [lo, hi), zero-filling the new ones.
  void Widen(size_t lo, size_t hi);

  size_t first_ = 0;              // index of window_[0]
  std::vector<uint64_t> window_;  // bins first_ .. first_ + size - 1
  uint64_t underflow_ = 0;        // x < 1 us (including x <= 0)
  uint64_t overflow_ = 0;         // x >= 1000 s
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// (time, value) series, e.g. a delay trace. Supports linear interpolation,
// which is how the paper compares ELEMENT samples against ground truth.
class TimeSeries {
 public:
  // Points must not go back in time (DCHECK): InterpolateAt searches them.
  void Add(SimTime t, double v);

  size_t count() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  struct Point {
    SimTime t;
    double v;
  };
  const std::vector<Point>& points() const { return points_; }

  // Linear interpolation at time t; clamps outside the recorded range.
  // Returns false if the series is empty.
  bool InterpolateAt(SimTime t, double* out) const;
  // The value at `t` on the segment from `lo` to `hi`: the one expression
  // InterpolateAt and StreamingScorer share, so both give the same bits.
  static double Interpolate(const Point& lo, const Point& hi, SimTime t);

  RunningStats Summary() const;
  // The values alone, in insertion order (exact mean/stdev/quantiles).
  SampleSet Values() const;
  // Mean restricted to t >= from (skips e.g. slow-start transients).
  double MeanAfter(SimTime from) const;

 private:
  std::vector<Point> points_;
};

// Pretty table printer shared by the bench binaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  std::string Render() const;

  static std::string Fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace element

#endif  // ELEMENT_SRC_COMMON_STATS_H_
