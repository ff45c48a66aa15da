#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/common/check.h"

namespace element {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::Variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::Stdev() const { return std::sqrt(Variance()); }

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void SampleSet::Merge(const SampleSet& other) {
  if (other.samples_.empty()) {
    return;
  }
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_valid_ = false;
}

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double v : samples_) {
    s += v;
  }
  return s / static_cast<double>(samples_.size());
}

double SampleSet::Stdev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  double m = mean();
  double s = 0.0;
  for (double v : samples_) {
    s += (v - m) * (v - m);
  }
  return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

void SampleSet::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double SampleSet::Quantile(double q) const {
  EnsureSorted();
  if (sorted_.empty()) {
    ELEMENT_DCHECK(false) << "SampleSet::Quantile(" << q << ") on an empty set";
    return 0.0;
  }
  if (q <= 0.0) {
    return sorted_.front();
  }
  if (q >= 1.0) {
    return sorted_.back();
  }
  double pos = q * static_cast<double>(sorted_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) {
    return sorted_.back();
  }
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

double SampleSet::Median() const {
  if (samples_.empty()) {
    return Quantile(0.5);
  }
  // Quantile(0.5)'s positions and expression over a partly ordered copy:
  // after nth_element, s[lo] is the lo-th order statistic and the (lo+1)-th
  // is the least of the part above it.
  std::vector<double> s = samples_;
  double pos = 0.5 * static_cast<double>(s.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  auto nth = s.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(s.begin(), nth, s.end());
  if (lo + 1 >= s.size()) {
    return *nth;
  }
  double next = *std::min_element(nth + 1, s.end());
  return *nth * (1.0 - frac) + next * frac;
}

std::string SampleSet::CdfRows(const std::vector<double>& quantiles,
                               const std::string& label) const {
  std::ostringstream os;
  for (double q : quantiles) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-28s p%-5.1f %.6f\n", label.c_str(), q * 100.0,
                  Quantile(q));
    os << buf;
  }
  return os.str();
}

namespace {

// Histogram's geometry (stats.h).
constexpr double kFloor = 1e-6;
constexpr double kCeiling = 1e3;
constexpr int kBinsPerDecade = 32;
const double kLogFloor = std::log10(kFloor);
const size_t kBins = static_cast<size_t>(
    std::ceil((std::log10(kCeiling) - kLogFloor) * kBinsPerDecade - 1e-9));

}  // namespace

void Histogram::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  if (!(x >= kFloor)) {  // also catches x <= 0 and NaN
    ++underflow_;
    return;
  }
  if (x >= kCeiling) {
    ++overflow_;
    return;
  }
  double pos = (std::log10(x) - kLogFloor) * static_cast<double>(kBinsPerDecade);
  size_t idx = pos <= 0.0 ? 0 : static_cast<size_t>(pos);
  if (idx >= kBins) {  // log10 rounding at the top edge
    idx = kBins - 1;
  }
  Widen(idx, idx + 1);
  ++window_[idx - first_];
}

void Histogram::Widen(size_t lo, size_t hi) {
  if (window_.empty()) {
    first_ = lo;
    window_.assign(hi - lo, 0);
    return;
  }
  size_t end = first_ + window_.size();
  if (lo >= first_ && hi <= end) {
    return;
  }
  lo = std::min(lo, first_);
  hi = std::max(hi, end);
  std::vector<uint64_t> wider(hi - lo, 0);
  std::copy(window_.begin(), window_.end(),
            wider.begin() + static_cast<std::ptrdiff_t>(first_ - lo));
  window_.swap(wider);
  first_ = lo;
}

std::vector<uint64_t> Histogram::bins() const {
  std::vector<uint64_t> dense(kBins, 0);
  std::copy(window_.begin(), window_.end(),
            dense.begin() + static_cast<std::ptrdiff_t>(first_));
  return dense;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  if (!other.window_.empty()) {
    Widen(other.first_, other.first_ + other.window_.size());
    for (size_t i = 0; i < other.window_.size(); ++i) {
      window_[other.first_ - first_ + i] += other.window_[i];
    }
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::BinLowerEdge(size_t i) const {
  return std::pow(10.0, kLogFloor + static_cast<double>(i) / kBinsPerDecade);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) {
    ELEMENT_DCHECK(false) << "Histogram::Quantile(" << q << ") on an empty histogram";
    return 0.0;
  }
  if (q <= 0.0) {
    return min_;
  }
  if (q >= 1.0) {
    return max_;
  }
  // Rank of the requested order statistic (1-based).
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_)) + 1;
  if (rank > count_) {
    rank = count_;
  }
  double value;
  if (rank <= underflow_) {
    value = min_;
  } else {
    uint64_t cum = underflow_;
    size_t i = 0;
    for (; i < window_.size(); ++i) {
      if (cum + window_[i] >= rank) {
        break;
      }
      cum += window_[i];
    }
    if (i == window_.size()) {
      value = max_;  // rank lands in the overflow region
    } else {
      // Geometric interpolation across the bin by rank fraction.
      double frac =
          static_cast<double>(rank - cum) / static_cast<double>(window_[i]);
      double lo = std::log10(BinLowerEdge(first_ + i));
      double hi = lo + 1.0 / static_cast<double>(kBinsPerDecade);
      value = std::pow(10.0, lo + (hi - lo) * frac);
    }
  }
  return std::min(std::max(value, min_), max_);
}

void TimeSeries::Add(SimTime t, double v) {
  ELEMENT_DCHECK(points_.empty() || t >= points_.back().t)
      << "time series point at " << t.nanos() << "ns after one at " << points_.back().t.nanos()
      << "ns";
  points_.push_back({t, v});
}

bool TimeSeries::InterpolateAt(SimTime t, double* out) const {
  if (points_.empty()) {
    return false;
  }
  if (t <= points_.front().t) {
    *out = points_.front().v;
    return true;
  }
  if (t >= points_.back().t) {
    *out = points_.back().v;
    return true;
  }
  auto it = std::lower_bound(points_.begin(), points_.end(), t,
                             [](const Point& p, SimTime when) { return p.t < when; });
  *out = Interpolate(*(it - 1), *it, t);
  return true;
}

double TimeSeries::Interpolate(const Point& lo, const Point& hi, SimTime t) {
  TimeDelta span = hi.t - lo.t;
  if (span.nanos() <= 0) {
    return lo.v;
  }
  double frac = (t - lo.t) / span;
  return lo.v * (1.0 - frac) + hi.v * frac;
}

RunningStats TimeSeries::Summary() const {
  RunningStats rs;
  for (const Point& p : points_) {
    rs.Add(p.v);
  }
  return rs;
}

SampleSet TimeSeries::Values() const {
  SampleSet values;
  values.Reserve(points_.size());
  for (const Point& p : points_) {
    values.Add(p.v);
  }
  return values;
}

double TimeSeries::MeanAfter(SimTime from) const {
  RunningStats rs;
  for (const Point& p : points_) {
    if (p.t >= from) {
      rs.Add(p.v);
    }
  }
  return rs.mean();
}

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string TablePrinter::Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::Render() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < widths.size(); ++i) {
      std::string cell = i < row.size() ? row[i] : "";
      os << cell;
      for (size_t pad = cell.size(); pad < widths[i] + 2; ++pad) {
        os << ' ';
      }
    }
    os << '\n';
  };
  emit_row(headers_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

}  // namespace element
