// The benchmark's own arithmetic: the percentile rule, span self-time
// accounting, and the share metrics. Header-only and free of simulator
// types so tests/bench_math_test.cc can check it with synthetic inputs.

#ifndef ELEMENT_PERFBENCH_BENCH_MATH_H_
#define ELEMENT_PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// ---- Percentiles -------------------------------------------------------------

// Samples a reported tail percentile must leave beyond it.
inline constexpr size_t kTailSamples = 10;

// The highest quantile at most `target` that still has kTailSamples samples
// beyond it among `n`: min(target, 1 - 10/n), never below the median. With
// fewer than 20 samples even the median is unsupported; it is reported anyway
// and the sample count says so.
inline double SupportedQuantile(size_t n, double target) {
  if (n <= 2 * kTailSamples) {
    return std::min(target, 0.5);
  }
  double q = 1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
  return std::max(0.5, std::min(target, q));
}

// Linear interpolation between order statistics; 0 for an empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// A tail value under the percentile rule, with the quantile it actually used.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;
  size_t samples = 0;
};

inline Tail TailQuantile(const std::vector<double>& values, double target) {
  Tail t;
  t.samples = values.size();
  t.quantile = SupportedQuantile(values.size(), target);
  t.value = Quantile(values, t.quantile);
  return t;
}

// ---- Shares ------------------------------------------------------------------

// Failed operations over attempted ones; 0 when nothing was attempted.
inline double FailedShare(uint64_t attempted, uint64_t failed) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

// Σ scenario wall / (jobs × fleet wall): how busy the fleet kept its workers.
inline double WorkerBusyShare(double scenario_wall_sum_s, int jobs, double fleet_wall_s) {
  if (jobs <= 0 || fleet_wall_s <= 0.0) {
    return 0.0;
  }
  return scenario_wall_sum_s / (static_cast<double>(jobs) * fleet_wall_s);
}

// Seed of the i-th simulation a run makes from its --seed.
inline uint64_t SeedFor(uint64_t seed, uint64_t i) { return seed + 1000003ull * i; }

// ---- Spans -------------------------------------------------------------------

// The seams the traced run times. Each belongs to one src/ module (the part
// of the name before the first dot).
enum class Layer : int {
  kTcpRx,      // tcpsim.rx: a packet handed to a TcpSocket by its demux
  kTcpWrite,   // tcpsim.write: an app write on a raw TCP socket
  kTcpRead,    // tcpsim.read: an app read on a raw TCP socket
  kNetTx,      // netsim.tx: a socket's packet entering its first pipe
  kTrace,      // trace: one record delivered to a GroundTruthTracer
  kElemSend,   // element.send: an app write through ElementSocket::Send
  kElemRecv,   // element.recv: an app read through ElementSocket::Read
};
inline constexpr int kLayerCount = 7;

inline const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "tcpsim.rx", "tcpsim.write", "tcpsim.read", "netsim.tx",
      "trace",     "element.send", "element.recv"};
  return kNames[static_cast<size_t>(layer)];
}

// Collects nested spans on one thread. Begin/End take timestamps so tests can
// drive it with synthetic clocks; the traced run passes steady_clock
// nanoseconds. Spans are aggregated in memory per (layer, parent layer) and
// a bounded, evenly thinned sample of raw spans is kept for the trace file.
class SpanRecorder {
 public:
  static constexpr int kRoot = kLayerCount;  // parent index of top-level spans
  static constexpr size_t kMaxRawSpans = 4096;

  struct Aggregate {
    uint64_t calls = 0;
    int64_t total_ns = 0;  // span durations
    int64_t self_ns = 0;   // durations minus the time child spans cover
  };

  struct RawSpan {
    int layer = 0;
    int parent = kRoot;
    int64_t start_ns = 0;
    int64_t duration_ns = 0;
    int64_t self_ns = 0;
  };

  void Begin(Layer layer, int64_t now_ns) {
    stack_.push_back(Open{static_cast<int>(layer), now_ns, 0});
  }

  void End(int64_t now_ns) {
    Open open = stack_.back();
    stack_.pop_back();
    int64_t duration = now_ns - open.start_ns;
    int64_t self = duration - open.child_ns;
    int parent = stack_.empty() ? kRoot : stack_.back().layer;
    if (stack_.empty()) {
      root_ns_ += duration;
    } else {
      stack_.back().child_ns += duration;
    }
    Aggregate& agg = aggregates_[static_cast<size_t>(open.layer)][static_cast<size_t>(parent)];
    ++agg.calls;
    agg.total_ns += duration;
    agg.self_ns += self;
    if (spans_seen_++ % sample_every_ == 0) {
      raw_.push_back(RawSpan{open.layer, parent, open.start_ns, duration, self});
      if (raw_.size() == kMaxRawSpans) {
        // Keep every other span and halve the sampling rate, so the sample
        // stays bounded and evenly spread over the whole run.
        size_t kept = 0;
        for (size_t i = 0; i < raw_.size(); i += 2) {
          raw_[kept++] = raw_[i];
        }
        raw_.resize(kept);
        sample_every_ *= 2;
      }
    }
  }

  bool idle() const { return stack_.empty(); }

  const Aggregate& aggregate(Layer layer, int parent) const {
    return aggregates_[static_cast<size_t>(layer)][static_cast<size_t>(parent)];
  }
  // Sums over every parent.
  Aggregate Total(Layer layer) const {
    Aggregate sum;
    for (const Aggregate& a : aggregates_[static_cast<size_t>(layer)]) {
      sum.calls += a.calls;
      sum.total_ns += a.total_ns;
      sum.self_ns += a.self_ns;
    }
    return sum;
  }
  // Time covered by top-level spans.
  int64_t root_ns() const { return root_ns_; }
  const std::vector<RawSpan>& raw_spans() const { return raw_; }

 private:
  struct Open {
    int layer;
    int64_t start_ns;
    int64_t child_ns;
  };

  std::vector<Open> stack_;
  std::array<std::array<Aggregate, kLayerCount + 1>, kLayerCount> aggregates_{};
  int64_t root_ns_ = 0;
  std::vector<RawSpan> raw_;
  uint64_t spans_seen_ = 0;
  uint64_t sample_every_ = 1;
};

// Share of `run_ns` that no top-level span covers: event-loop dispatch, timer
// callbacks and the pipe/router work between the timed seams.
inline double UnattributedShare(int64_t run_ns, int64_t root_ns) {
  if (run_ns <= 0) {
    return 0.0;
  }
  return std::max(0.0, static_cast<double>(run_ns - root_ns) / static_cast<double>(run_ns));
}

}  // namespace perfbench

#endif  // ELEMENT_PERFBENCH_BENCH_MATH_H_
