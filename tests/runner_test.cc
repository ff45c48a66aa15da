// Tests for the fleet-runner subsystem: histogram merge algebra, scenario
// JSON round-trips, sweep expansion, runner flags, and — the load-bearing
// contract — determinism of the fleet aggregate under parallelism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/runner/experiment.h"
#include "src/runner/fleet.h"
#include "src/common/json.h"
#include "src/runner/scenario.h"

namespace element {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  h.Add(0.010);
  h.Add(0.020);
  h.Add(0.030);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.010);
  EXPECT_DOUBLE_EQ(h.max(), 0.030);
  EXPECT_NEAR(h.mean(), 0.020, 1e-12);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(HistogramTest, UnderflowAndOverflowAreCounted) {
  Histogram h;  // bins [1 us, 1000 s)
  h.Add(0.0);     // below floor (and non-positive)
  h.Add(1e-8);    // below floor
  h.Add(0.5);     // in range
  h.Add(2e3);     // above ceiling
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  // Extremes are tracked exactly even outside the binned range.
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 2e3);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2e3);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
}

TEST(HistogramTest, QuantileAccuracyWithinBinResolution) {
  Histogram h;
  SampleSet exact;
  Rng rng(1234);
  for (int i = 0; i < 20000; ++i) {
    double v = rng.Exponential(0.050);
    h.Add(v);
    exact.Add(v);
  }
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    double approx = h.Quantile(q);
    double truth = exact.Quantile(q);
    // 32 bins/decade => bin edges are 10^(1/32) ~ 7.5% apart.
    EXPECT_NEAR(approx, truth, truth * 0.08) << "q=" << q;
  }
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  Rng rng(99);
  std::vector<std::vector<double>> batches(3);
  for (size_t b = 0; b < batches.size(); ++b) {
    for (int i = 0; i < 500; ++i) {
      batches[b].push_back(rng.Pareto(1e-4, 1.3));
    }
  }
  auto build = [&](size_t b) {
    Histogram h;
    for (double v : batches[b]) {
      h.Add(v);
    }
    return h;
  };
  Histogram a = build(0);
  Histogram b = build(1);
  Histogram c = build(2);

  Histogram left = a;  // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  Histogram right = c;  // (c + b) + a == a + (b + c) up to bin counts
  right.Merge(b);
  right.Merge(a);

  EXPECT_EQ(left.bins(), right.bins());
  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.underflow(), right.underflow());
  EXPECT_EQ(left.overflow(), right.overflow());
  EXPECT_DOUBLE_EQ(left.min(), right.min());
  EXPECT_DOUBLE_EQ(left.max(), right.max());
  // Quantiles depend only on bins + extremes, so they are exactly equal.
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(left.Quantile(q), right.Quantile(q)) << "q=" << q;
  }
  // The running sum is the one float accumulator: order-sensitive only in the
  // last ulps.
  EXPECT_NEAR(left.sum(), right.sum(), std::abs(left.sum()) * 1e-12);
}

TEST(HistogramTest, MergeEmptyIsIdentity) {
  Histogram h;
  h.Add(0.5);
  Histogram empty;
  h.Merge(empty);
  EXPECT_EQ(h.count(), 1u);
  Histogram h2;
  h2.Merge(h);
  EXPECT_EQ(h2.count(), 1u);
  EXPECT_DOUBLE_EQ(h2.min(), 0.5);
}

// Histogram's geometry: [1 us, 1000 s) at 32 bins per decade.
constexpr double kHistFloor = 1e-6;
constexpr double kHistCeiling = 1e3;

// A dense histogram with every bin stored, binned and queried with the same
// arithmetic as Histogram: the reference its window storage must match.
struct DenseHistogram {
  DenseHistogram() {
    log_floor = std::log10(floor);
    double decades = std::log10(ceiling) - log_floor;
    bins.assign(static_cast<size_t>(std::ceil(decades * bins_per_decade - 1e-9)), 0);
  }

  void Add(double x) {
    min = count == 0 ? x : std::min(min, x);
    max = count == 0 ? x : std::max(max, x);
    ++count;
    sum += x;
    if (!(x >= floor)) {
      ++underflow;
      return;
    }
    if (x >= ceiling) {
      ++overflow;
      return;
    }
    double pos = (std::log10(x) - log_floor) * static_cast<double>(bins_per_decade);
    size_t idx = pos <= 0.0 ? 0 : static_cast<size_t>(pos);
    if (idx >= bins.size()) {
      idx = bins.size() - 1;
    }
    ++bins[idx];
  }

  double Quantile(double q) const {
    if (q <= 0.0) {
      return min;
    }
    if (q >= 1.0) {
      return max;
    }
    uint64_t rank = std::min(static_cast<uint64_t>(q * static_cast<double>(count)) + 1, count);
    double value;
    if (rank <= underflow) {
      value = min;
    } else {
      uint64_t cum = underflow;
      size_t i = 0;
      for (; i < bins.size() && cum + bins[i] < rank; ++i) {
        cum += bins[i];
      }
      if (i == bins.size()) {
        value = max;
      } else {
        double frac = static_cast<double>(rank - cum) / static_cast<double>(bins[i]);
        double lo = std::log10(
            std::pow(10.0, log_floor + static_cast<double>(i) / bins_per_decade));
        double hi = lo + 1.0 / static_cast<double>(bins_per_decade);
        value = std::pow(10.0, lo + (hi - lo) * frac);
      }
    }
    return std::min(std::max(value, min), max);
  }

  double floor = kHistFloor;
  double ceiling = kHistCeiling;
  int bins_per_decade = 32;
  double log_floor;
  std::vector<uint64_t> bins;
  uint64_t underflow = 0;
  uint64_t overflow = 0;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Same bits, NaN included.
bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr double kReferenceQuantiles[] = {0.0, 0.001, 0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0};

// About 10k samples spread log-uniformly over [floor / 100, ceiling * 10),
// with every edge case interleaved: 0, negatives, NaN (never first, so min
// and max stay numbers), the floor itself, values just below the ceiling
// (where log10 can round up to the bin count), the ceiling and above it.
std::vector<double> EdgeCaseStream(double floor, double ceiling, uint64_t seed) {
  const double specials[] = {0.0,
                             -1.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             floor / 2,
                             std::nextafter(floor, 0.0),
                             floor,
                             std::nextafter(floor, ceiling),
                             std::nextafter(ceiling, 0.0),
                             ceiling * (1 - 1e-15),
                             ceiling,
                             ceiling * 5};
  Rng rng(seed);
  std::vector<double> out;
  double lo = std::log10(floor) - 2;
  double hi = std::log10(ceiling) + 1;
  for (int i = 0; i < 10'000; ++i) {
    out.push_back(i % 97 == 5 ? specials[(i / 97) % std::size(specials)]
                              : std::pow(10.0, rng.Uniform(lo, hi)));
  }
  return out;
}

void ExpectMatchesDense(const Histogram& h, const DenseHistogram& ref) {
  EXPECT_EQ(h.bins(), ref.bins);
  EXPECT_EQ(h.underflow(), ref.underflow);
  EXPECT_EQ(h.overflow(), ref.overflow);
  EXPECT_EQ(h.count(), ref.count);
  EXPECT_TRUE(SameDouble(h.sum(), ref.sum)) << h.sum() << " vs " << ref.sum;
  EXPECT_TRUE(SameDouble(h.min(), ref.min)) << h.min() << " vs " << ref.min;
  EXPECT_TRUE(SameDouble(h.max(), ref.max)) << h.max() << " vs " << ref.max;
  if (ref.count == 0) {
    return;  // querying an empty histogram is a caller bug
  }
  for (double q : kReferenceQuantiles) {
    EXPECT_TRUE(SameDouble(h.Quantile(q), ref.Quantile(q))) << "q=" << q;
  }
}

TEST(HistogramTest, MatchesDenseReferenceOnEdgeCases) {
  Histogram h;
  DenseHistogram ref;
  std::vector<double> stream = EdgeCaseStream(kHistFloor, kHistCeiling, 2024);
  for (size_t i = 0; i < stream.size(); ++i) {
    h.Add(stream[i]);
    ref.Add(stream[i]);
    if (i < 16 || i % 1000 == 0) {  // the first bins of the window, then spot checks
      ExpectMatchesDense(h, ref);
    }
  }
  ExpectMatchesDense(h, ref);
  EXPECT_GT(ref.bins.front(), 0u);  // the stream reached both end bins
  EXPECT_GT(ref.bins.back(), 0u);
}

TEST(HistogramTest, MergeOfAnyWindowsEqualsOneHistogramFedEverySample) {
  Rng rng(77);
  auto uniform_in = [&](double lo, double hi, int n) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) {
      v.push_back(std::pow(10.0, rng.Uniform(std::log10(lo), std::log10(hi))));
    }
    return v;
  };
  std::vector<std::vector<double>> parts = {
      uniform_in(1e-5, 1e-4, 300),            // low window
      uniform_in(1.0, 10.0, 300),             // disjoint from the first
      uniform_in(5e-5, 2.0, 300),             // overlaps both
      {},                                     // empty
      {0.0, -3.0, 1e-9, 5e-7},                // all underflow: no window
      {2e3, 1e3, 3e-4, 1e4, -1.0, 999.999},   // both tails and one bin
  };
  for (size_t a = 0; a < parts.size(); ++a) {
    for (size_t b = 0; b < parts.size(); ++b) {
      SCOPED_TRACE(testing::Message() << "parts " << a << " + " << b);
      Histogram ha;
      Histogram hb;
      Histogram whole;
      DenseHistogram ref;
      for (double v : parts[a]) {
        ha.Add(v);
        whole.Add(v);
        ref.Add(v);
      }
      for (double v : parts[b]) {
        hb.Add(v);
        whole.Add(v);
        ref.Add(v);
      }
      ha.Merge(hb);
      ExpectMatchesDense(whole, ref);
      EXPECT_EQ(ha.bins(), whole.bins());
      EXPECT_EQ(ha.underflow(), whole.underflow());
      EXPECT_EQ(ha.overflow(), whole.overflow());
      EXPECT_EQ(ha.count(), whole.count());
      EXPECT_EQ(ha.empty(), whole.empty());
      if (whole.empty()) {
        continue;
      }
      EXPECT_EQ(ha.min(), whole.min());
      EXPECT_EQ(ha.max(), whole.max());
      // The running sum is the one order-sensitive accumulator.
      EXPECT_NEAR(ha.sum(), whole.sum(), std::abs(whole.sum()) * 1e-12);
      for (double q : kReferenceQuantiles) {
        EXPECT_EQ(ha.Quantile(q), whole.Quantile(q)) << "q=" << q;
      }
    }
  }
}

#if ELEMENT_AUDITS_ENABLED
TEST(HistogramDeathTest, EmptyQuantileIsACallerBug) {
  Histogram h;
  EXPECT_DEATH(h.Quantile(0.5), "empty histogram");
  SampleSet s;
  EXPECT_DEATH(s.Quantile(0.5), "empty set");
}
#else
TEST(HistogramTest, EmptyQuantileReturnsZeroInRelease) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
}
#endif

TEST(SampleSetTest, MergeAppendsSamples) {
  SampleSet a;
  a.Add(1.0);
  a.Add(3.0);
  SampleSet b;
  b.Add(2.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 2.0);
  a.Merge(SampleSet{});
  EXPECT_EQ(a.count(), 3u);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesScalarsArraysObjectsAndComments) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::Value::Parse(
      "// comment\n{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"x\\ny\"}",
      &v, &err))
      << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("a")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("a")->items()[1].AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(v.Find("a")->items()[2].AsDouble(), -300.0);
  EXPECT_TRUE(v.Find("b")->Find("c")->AsBool());
  EXPECT_EQ(v.Find("b")->Find("d")->type(), json::Value::Type::kNull);
  EXPECT_EQ(v.Find("s")->AsString(), "x\ny");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::Value::Parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(json::Value::Parse("[1, 2", &v, &err));
  EXPECT_FALSE(json::Value::Parse("{\"a\": 1} trailing", &v, &err));
  EXPECT_FALSE(json::Value::Parse("\"unterminated", &v, &err));
  // Deep nesting is refused before it can overflow the stack: 200,000
  // brackets crashed the recursive parser; the bound itself is exact.
  EXPECT_FALSE(json::Value::Parse(std::string(200'000, '['), &v, &err));
  EXPECT_NE(err.find("nesting deeper than 256 levels"), std::string::npos) << err;
  const int depth = json::Value::kMaxDepth;
  EXPECT_TRUE(json::Value::Parse(std::string(depth, '[') + std::string(depth, ']'), &v, &err))
      << err;
  EXPECT_FALSE(json::Value::Parse(std::string(depth + 1, '[') + std::string(depth + 1, ']'), &v,
                                  &err));
  std::string objects;
  for (int i = 0; i <= depth; ++i) {
    objects += "{\"a\":";
  }
  EXPECT_FALSE(json::Value::Parse(objects + "1" + std::string(depth + 1, '}'), &v, &err));
  EXPECT_NE(err.find("nesting deeper"), std::string::npos) << err;
}

TEST(JsonTest, DumpParsesBackIdentically) {
  json::Value doc = json::Value::Object();
  doc.Set("n", json::Value::Number(0.123456789012345));
  doc.Set("i", json::Value::Int(42));
  doc.Set("s", json::Value::Str("he\"llo\n"));
  json::Value arr = json::Value::Array();
  arr.Append(json::Value::Bool(true));
  arr.Append(json::Value::Null());
  doc.Set("a", std::move(arr));
  std::string text = doc.Dump();
  json::Value back;
  std::string err;
  ASSERT_TRUE(json::Value::Parse(text, &back, &err)) << err;
  EXPECT_EQ(back.Dump(), text);
  EXPECT_DOUBLE_EQ(back.Find("n")->AsDouble(), 0.123456789012345);
}

// A key given twice used to keep the last value without a word.
TEST(JsonTest, RejectsDuplicateKeys) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::Value::Parse(R"({"a": 1, "b": {"c": 2, "c": 2}})", &v, &err));
  EXPECT_EQ(err, "JSON parse error at offset 23: duplicate key 'c'");
  // Keys are compared after unescaping.
  EXPECT_FALSE(json::Value::Parse(R"({"k": 1, "\u006b": 2})", &v, &err));
  EXPECT_EQ(err, "JSON parse error at offset 9: duplicate key 'k'");
  // The same key in sibling objects is no duplicate.
  EXPECT_TRUE(json::Value::Parse(R"([{"k": 1}, {"k": 2}, {"k": {"k": 3}}])", &v, &err)) << err;
}

// FormatNumber as it was written with snprintf and strtod: the byte-for-byte
// reference for the to_chars/from_chars version.
std::string PrintfFormatNumber(double v) {
  if (std::isnan(v)) {
    return "null";
  }
  if (std::isinf(v)) {
    return v > 0 ? "1e308" : "-1e308";
  }
  double rounded = std::nearbyint(v);
  if (rounded == v && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  for (int prec = 9; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    char* end = nullptr;
    if (std::strtod(buf, &end) == v) {
      break;
    }
  }
  return buf;
}

TEST(JsonTest, FormatNumberMatchesPrintfReference) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> corpus = {
      0.0, -0.0, 0.1, -0.1, 1e-5, 1.0 / 3.0, 2.0 / 3.0, 0.1 + 0.2, 1e15, -1e15, 1e16, 1e21,
      1e22, 1e23, 123456789.125, 0.123456789012345, 5e-324, -5e-324, Limits::denorm_min(),
      Limits::min(), Limits::min() / 3.0, Limits::max(), -Limits::max(), Limits::epsilon(),
      std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0), 9007199254740993.0,
      Limits::quiet_NaN(), -Limits::quiet_NaN(), Limits::infinity(), -Limits::infinity()};
  // Integers and near-integers around the 1e15 switch to "%g".
  for (double base : {1e15, -1e15, 9007199254740992.0}) {
    double x = base;
    for (int i = 0; i < 8; ++i) {
      x = std::nextafter(x, 0.0);
    }
    for (int i = 0; i < 16; ++i, x = std::nextafter(x, 2.0 * base)) {
      corpus.push_back(x);
      corpus.push_back(x + 0.5);
    }
  }
  // Quarters up to 1e15 either side.
  constexpr int64_t kQuarters = 4'000'000'000'000'000;
  Rng rng(20190325);
  for (int i = 0; i < 20'000; ++i) {
    // Any bit pattern: subnormals, NaN payloads and infinities included.
    const uint64_t hi = static_cast<uint64_t>(rng.UniformInt(0, 0xFFFFFFFF));
    const uint64_t bits = hi << 32 | static_cast<uint64_t>(rng.UniformInt(0, 0xFFFFFFFF));
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    corpus.push_back(d);
    corpus.push_back(rng.Uniform());
    corpus.push_back(rng.Uniform(-1e6, 1e6));
    corpus.push_back(rng.Uniform(1.0, 10.0) * std::pow(10.0, rng.UniformInt(-320, 300)));
    corpus.push_back(static_cast<double>(rng.UniformInt(-kQuarters, kQuarters)) / 4.0);
    corpus.push_back(std::round(rng.Uniform(0.0, 1e6)) / 1000.0);
    corpus.push_back(Limits::min() * rng.Uniform());
  }
  size_t mismatches = 0;
  for (double v : corpus) {
    const std::string want = PrintfFormatNumber(v);
    const std::string got = json::FormatNumber(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "printf prints " << want << ", FormatNumber " << got;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << corpus.size();
}

// ---------------------------------------------------------------------------
// Scenario specs
// ---------------------------------------------------------------------------

constexpr char kSuiteText[] = R"({
  "suite": "unit",
  "defaults": {"duration_s": 0.5, "warmup_s": 0.1, "rate_mbps": 5, "rtt_ms": 20},
  "scenarios": [
    {"name": "explicit", "app": "accuracy", "duration_s": 1.0, "seed": 9}
  ],
  "sweeps": [
    {"name": "grid", "qdisc": ["pfifo_fast", "codel"], "cc": ["cubic", "reno"],
     "seed": {"base": 10, "count": 3}}
  ]
})";

TEST(ScenarioTest, ParsesDefaultsScenariosAndSweeps) {
  ScenarioSuite suite;
  std::string err;
  ASSERT_TRUE(ScenarioSuite::ParseJson(kSuiteText, &suite, &err)) << err;
  EXPECT_EQ(suite.name, "unit");
  // 1 explicit + 2 qdiscs * 2 ccs * 3 seeds.
  ASSERT_EQ(suite.scenarios.size(), 13u);
  EXPECT_EQ(suite.scenarios[0].name, "explicit");
  EXPECT_EQ(suite.scenarios[0].app, "accuracy");
  EXPECT_EQ(suite.scenarios[0].seed, 9u);
  EXPECT_DOUBLE_EQ(suite.scenarios[0].duration_s, 1.0);
  // Defaults flow into sweep entries.
  EXPECT_DOUBLE_EQ(suite.scenarios[1].duration_s, 0.5);
  EXPECT_EQ(suite.scenarios[1].name, "grid/pfifo_fast/cubic");
  EXPECT_EQ(suite.scenarios[1].seed, 10u);
  EXPECT_EQ(suite.scenarios[3].seed, 12u);
  EXPECT_EQ(suite.scenarios[4].name, "grid/pfifo_fast/reno");
  EXPECT_EQ(suite.scenarios.back().name, "grid/codel/reno");
  EXPECT_EQ(suite.scenarios.back().seed, 12u);
}

// Every sweep axis with two values, across two sweeps (profile and topology
// cannot both vary in a valid spec), plus a single-value axis (topology) and
// an empty one (cc). Pins the expansion order, the label segments, the
// innermost seeds and the serialized specs.
TEST(ScenarioTest, SweepExpandsEveryAxisInOrder) {
  constexpr char kText[] = R"({
    "defaults": {"duration_s": 2, "warmup_s": 1, "cc": "vegas"},
    "sweeps": [
      {"name": "p", "profile": ["wired", "lte"], "rate_mbps": [5, 20.5], "rtt_ms": [10, 40],
       "qdisc": ["codel", "fq_codel"], "topology": ["none"], "cc": [],
       "seed": {"base": 3, "count": 2}},
      {"topology": ["dumbbell", "parking_lot"], "cc": ["reno", "bbr"], "num_flows": [1, 3],
       "cross_iperf": [0, 1], "cross_onoff": [0, 2]}
    ]
  })";
  ScenarioSuite suite;
  std::string err;
  ASSERT_TRUE(ScenarioSuite::ParseJson(kText, &suite, &err)) << err;
  std::string ids;
  for (const ScenarioSpec& spec : suite.scenarios) {
    ids += spec.Id() + " ";
  }
  EXPECT_EQ(ids,
            "p/wired/5mbps/10ms/codel#s3 p/wired/5mbps/10ms/codel#s4 "
            "p/wired/5mbps/10ms/fq_codel#s3 p/wired/5mbps/10ms/fq_codel#s4 "
            "p/wired/5mbps/40ms/codel#s3 p/wired/5mbps/40ms/codel#s4 "
            "p/wired/5mbps/40ms/fq_codel#s3 p/wired/5mbps/40ms/fq_codel#s4 "
            "p/wired/20.5mbps/10ms/codel#s3 p/wired/20.5mbps/10ms/codel#s4 "
            "p/wired/20.5mbps/10ms/fq_codel#s3 p/wired/20.5mbps/10ms/fq_codel#s4 "
            "p/wired/20.5mbps/40ms/codel#s3 p/wired/20.5mbps/40ms/codel#s4 "
            "p/wired/20.5mbps/40ms/fq_codel#s3 p/wired/20.5mbps/40ms/fq_codel#s4 "
            "p/lte/5mbps/10ms/codel#s3 p/lte/5mbps/10ms/codel#s4 p/lte/5mbps/10ms/fq_codel#s3 "
            "p/lte/5mbps/10ms/fq_codel#s4 p/lte/5mbps/40ms/codel#s3 p/lte/5mbps/40ms/codel#s4 "
            "p/lte/5mbps/40ms/fq_codel#s3 p/lte/5mbps/40ms/fq_codel#s4 "
            "p/lte/20.5mbps/10ms/codel#s3 p/lte/20.5mbps/10ms/codel#s4 "
            "p/lte/20.5mbps/10ms/fq_codel#s3 p/lte/20.5mbps/10ms/fq_codel#s4 "
            "p/lte/20.5mbps/40ms/codel#s3 p/lte/20.5mbps/40ms/codel#s4 "
            "p/lte/20.5mbps/40ms/fq_codel#s3 p/lte/20.5mbps/40ms/fq_codel#s4 "
            "sweep/dumbbell/reno/1f/ci0/co0#s1 sweep/dumbbell/reno/1f/ci0/co2#s1 "
            "sweep/dumbbell/reno/1f/ci1/co0#s1 sweep/dumbbell/reno/1f/ci1/co2#s1 "
            "sweep/dumbbell/reno/3f/ci0/co0#s1 sweep/dumbbell/reno/3f/ci0/co2#s1 "
            "sweep/dumbbell/reno/3f/ci1/co0#s1 sweep/dumbbell/reno/3f/ci1/co2#s1 "
            "sweep/dumbbell/bbr/1f/ci0/co0#s1 sweep/dumbbell/bbr/1f/ci0/co2#s1 "
            "sweep/dumbbell/bbr/1f/ci1/co0#s1 sweep/dumbbell/bbr/1f/ci1/co2#s1 "
            "sweep/dumbbell/bbr/3f/ci0/co0#s1 sweep/dumbbell/bbr/3f/ci0/co2#s1 "
            "sweep/dumbbell/bbr/3f/ci1/co0#s1 sweep/dumbbell/bbr/3f/ci1/co2#s1 "
            "sweep/parking_lot/reno/1f/ci0/co0#s1 sweep/parking_lot/reno/1f/ci0/co2#s1 "
            "sweep/parking_lot/reno/1f/ci1/co0#s1 sweep/parking_lot/reno/1f/ci1/co2#s1 "
            "sweep/parking_lot/reno/3f/ci0/co0#s1 sweep/parking_lot/reno/3f/ci0/co2#s1 "
            "sweep/parking_lot/reno/3f/ci1/co0#s1 sweep/parking_lot/reno/3f/ci1/co2#s1 "
            "sweep/parking_lot/bbr/1f/ci0/co0#s1 sweep/parking_lot/bbr/1f/ci0/co2#s1 "
            "sweep/parking_lot/bbr/1f/ci1/co0#s1 sweep/parking_lot/bbr/1f/ci1/co2#s1 "
            "sweep/parking_lot/bbr/3f/ci0/co0#s1 sweep/parking_lot/bbr/3f/ci0/co2#s1 "
            "sweep/parking_lot/bbr/3f/ci1/co0#s1 sweep/parking_lot/bbr/3f/ci1/co2#s1 ");
  // FNV-1a of the fully serialized suite.
  uint64_t fnv = 14695981039346656037ull;
  for (unsigned char c : suite.ToJson()) {
    fnv = (fnv ^ c) * 1099511628211ull;
  }
  EXPECT_EQ(fnv, 4254530216427805016ull);
  EXPECT_EQ(suite.scenarios.back().ToJson().Dump(-1),
            R"({"app":"legacy","cc":"bbr","cross_iperf":1,"cross_onoff":2,)"
            R"("duration_s":2,"ecn":false,"element_mode":"off","hops":1,)"
            R"("name":"sweep/parking_lot/bbr/3f/ci1/co2","num_flows":3,)"
            R"("profile":"wired","qdisc":"pfifo_fast","queue_packets":0,"rate_mbps":10,)"
            R"("rtt_ms":50,"seed":1,"topology":"parking_lot","warmup_s":1})");
}

TEST(ScenarioTest, JsonRoundTripIsIdentity) {
  ScenarioSuite suite;
  std::string err;
  ASSERT_TRUE(ScenarioSuite::ParseJson(kSuiteText, &suite, &err)) << err;
  std::string serialized = suite.ToJson();
  ScenarioSuite back;
  ASSERT_TRUE(ScenarioSuite::ParseJson(serialized, &back, &err)) << err;
  EXPECT_EQ(back.name, suite.name);
  ASSERT_EQ(back.scenarios.size(), suite.scenarios.size());
  EXPECT_EQ(back.ToJson(), serialized);
}

// Malformed suites fail the parse with a message naming the offending key or
// value, instead of silently keeping the default, truncating or running nothing.
void ExpectRejected(const std::string& text, const std::string& message) {
  ScenarioSuite suite;
  std::string err;
  EXPECT_FALSE(ScenarioSuite::ParseJson(text, &suite, &err)) << text;
  EXPECT_NE(err.find(message), std::string::npos) << err;
}

TEST(ScenarioTest, RejectsUnknownFieldsAndValues) {
  ExpectRejected(R"({"scenarios": [{"qdsic": "codel"}]})", "unknown scenario field 'qdsic'");
  // Data crosses every path client to server; the upload direction is a
  // profile (cable_up, lte_up), not a field.
  ExpectRejected(R"({"scenarios": [{"download": true}]})", "unknown scenario field 'download'");
  ExpectRejected(R"({"scenarios": [{"qdisc": "taildrop"}]})", "unknown qdisc");
  ExpectRejected(R"({"scenarios": [{"cc": "quic"}]})", "unknown cc");
  ExpectRejected(R"({"scenarios": [{"duration_s": -1}]})", "duration_s must be positive");
  // Knobs every run left at one value are constants, not fields; a suite
  // that names one fails instead of running without it.
  for (const char* key : {"loss", "background_flows", "host_pairs", "tracker_period_ms"}) {
    ExpectRejected(std::string(R"({"scenarios": [{")") + key + R"(": 1}]})",
                   std::string("unknown scenario field '") + key + "'");
  }
  ExpectRejected(R"({"scenarios": [{"queue_packets": -5}]})", "queue_packets");
  // The auto-sized queue used to wrap to 0 packets and abort a topology run.
  ExpectRejected(R"({"scenarios": [{"rate_mbps": 1e300}]})", "rate_mbps = 1e+300 is out of range");
  // A typo'd top-level key would otherwise run nothing.
  ExpectRejected(R"({"suite": "t", "sweep": [{"qdisc": ["codel", "pie"]}]})",
                 "unknown suite key 'sweep' (suite|defaults|scenarios|sweeps)");
  // An entry that is not an object used to run as a default scenario.
  ExpectRejected(R"({"scenarios": [5]})", "scenarios[0] must be an object");
  ExpectRejected(R"({"scenarios": [{"name": "a"}, "x"]})", "scenarios[1] must be an object");
  ExpectRejected(R"({"scenarios": [[]]})", "scenarios[0] must be an object");
  ExpectRejected(R"({"scenarios": [null]})", "scenarios[0] must be an object");
  ExpectRejected(R"({"sweeps": [7]})", "sweeps[0] must be an object");
  ExpectRejected(R"({"sweeps": [{"qdisc": ["codel"]}, []]})", "sweeps[1] must be an object");
}

// A sweep past the suite's scenario limit is refused before anything is
// reserved; 2e9 seeds used to abort on std::bad_alloc.
TEST(ScenarioTest, RejectsSweepPastScenarioLimit) {
  ExpectRejected(R"({"sweeps": [{"seed": {"count": 2000000000}}]})",
                 "sweeps[0] brings the suite to 2000000000 scenarios; a suite holds at most "
                 "1000000");
  // The limit counts the whole suite: explicit scenarios and earlier sweeps.
  ExpectRejected(R"({"scenarios": [{"name": "a"}],
                     "sweeps": [{"seed": {"count": 999999}}, {"seed": {"count": 1}}]})",
                 "sweeps[1] brings the suite to 1000001 scenarios");
  // The axis product is checked at each axis, before it can wrap.
  std::string axis;
  for (int i = 1; i <= 1001; ++i) {
    if (i > 1) {
      axis += ',';
    }
    axis += std::to_string(i);
  }
  ExpectRejected(R"({"sweeps": [{"rate_mbps": [)" + axis + R"(], "rtt_ms": [)" + axis +
                     R"(], "seed": {"count": 2000000000}}]})",
                 "sweeps[0] brings the suite to at least 1002001 scenarios");
}

// Each time field becomes int64 nanoseconds in the drivers; a value past
// that range used to wrap or run an empty scenario that reported "ok".
TEST(ScenarioTest, RejectsDurationPastInt64Nanoseconds) {
  ExpectRejected(R"({"scenarios": [{"duration_s": 1e12}]})",
                 "duration_s = 1e+12 is out of range");
}

TEST(ScenarioTest, RejectsRttPastInt64Nanoseconds) {
  ExpectRejected(R"({"scenarios": [{"rtt_ms": 1e300}]})", "rtt_ms = 1e+300 is out of range");
}

TEST(ScenarioTest, RejectsStringInteger) {
  ExpectRejected(R"({"scenarios": [{"num_flows": "4"}]})",
                 "field 'num_flows' must be an integer in [-2147483648, 2147483647]");
}

TEST(ScenarioTest, RejectsNonIntegralInteger) {
  ExpectRejected(R"({"scenarios": [{"num_flows": 2.7}]})",
                 "field 'num_flows' must be an integer");
}

TEST(ScenarioTest, RejectsOutOfRangeSeed) {
  ExpectRejected(R"({"scenarios": [{"seed": 1e30}]})",
                 "field 'seed' must be an integer in [0, 18446744073709551615]");
  ExpectRejected(R"({"scenarios": [{"seed": -1}]})", "field 'seed' must be an integer");
}

TEST(ScenarioTest, RejectsWrongTypedAxisItem) {
  ExpectRejected(R"({"sweeps": [{"cross_iperf": [0, "1"]}]})",
                 "field 'cross_iperf[1]' must be an integer");
  ExpectRejected(R"({"sweeps": [{"rate_mbps": [10, "20"]}]})",
                 "field 'rate_mbps[1]' must be a number");
  ExpectRejected(R"({"sweeps": [{"cc": ["cubic", 3]}]})", "field 'cc[1]' must be a string");
}

TEST(ScenarioTest, RejectsStringSeedCount) {
  ExpectRejected(R"({"sweeps": [{"seed": {"base": 1, "count": "3"}}]})",
                 "field 'seed.count' must be an integer");
  ExpectRejected(R"({"sweeps": [{"seed": {"bsae": 5, "count": -3}}]})",
                 "unknown seed field 'bsae' (base|count)");
  ExpectRejected(R"({"sweeps": [{"seed": {"count": 0}}]})",
                 "field 'seed.count' must be >= 1, got 0");
}

// Knobs an app never reads are rejected instead of silently ignored.
TEST(ScenarioTest, RejectsKnobsTheAppIgnores) {
  ExpectRejected(R"({"scenarios": [{"app": "accuracy", "num_flows": 2}]})",
                 "app=accuracy runs one flow; num_flows must be 1, got 2");
  ExpectRejected(R"({"scenarios": [{"app": "accuracy", "element_mode": "first"}]})",
                 "element_mode must be off (got 'first')");
  ExpectRejected(R"({"scenarios": [{"app": "accuracy", "cc": "bbr"}]})",
                 "app=accuracy runs Cubic; cc must be cubic (got 'bbr')");
}

struct SpecCase {
  void (*set)(ScenarioSpec* spec);
  const char* message;
};

// One invalid spec per check of ScenarioSpec::Validate, in the order the
// checks run, each with its whole message; then specs that pass.
TEST(ScenarioTest, ValidateNamesEachProblem) {
  const SpecCase kCases[] = {
      {[](ScenarioSpec* s) { s->app = "web"; }, "unknown app 'web' (legacy|accuracy)"},
      {[](ScenarioSpec* s) { s->profile = "dsl"; },
       "unknown profile 'dsl' (wired|lan|cable|cable_up|wifi|lte|lte_up)"},
      {[](ScenarioSpec* s) { s->qdisc = "taildrop"; },
       "unknown qdisc 'taildrop' (pfifo_fast|codel|fq_codel|pie|red)"},
      {[](ScenarioSpec* s) { s->cc = "quic"; },
       "unknown cc 'quic' (reno|cubic|cubic-nohystart|vegas|ledbat|bbr)"},
      {[](ScenarioSpec* s) { s->element_mode = "all"; },
       "unknown element_mode 'all' (off|first|wireless)"},
      {[](ScenarioSpec* s) { s->rtt_ms = 1e300; },
       "rtt_ms = 1e+300 is out of range: its nanoseconds must fit in int64"},
      {[](ScenarioSpec* s) { s->duration_s = std::numeric_limits<double>::quiet_NaN(); },
       "duration_s = nan is out of range: its nanoseconds must fit in int64"},
      {[](ScenarioSpec* s) { s->warmup_s = -std::numeric_limits<double>::infinity(); },
       "warmup_s = -inf is out of range: its nanoseconds must fit in int64"},
      {[](ScenarioSpec* s) { s->duration_s = 0.0; }, "duration_s must be positive, got 0"},
      {[](ScenarioSpec* s) { s->warmup_s = -0.5; },
       "warmup_s must be in [0, duration_s), got -0.5"},
      {[](ScenarioSpec* s) { s->warmup_s = 30.0; },
       "warmup_s must be in [0, duration_s), got 30"},
      {[](ScenarioSpec* s) { s->num_flows = 0; }, "num_flows must be >= 1, got 0"},
      {[](ScenarioSpec* s) { s->rate_mbps = -2.5; }, "rate_mbps must be positive, got -2.5"},
      {[](ScenarioSpec* s) { s->queue_packets = -5; },
       "queue_packets must be >= 0 (0 sizes the queue automatically), got -5"},
      {[](ScenarioSpec* s) { s->rtt_ms = -0.25; }, "rtt_ms must be positive, got -0.25"},
      {[](ScenarioSpec* s) {
         s->rate_mbps = 1e300;
         s->rtt_ms = 12.5;
       },
       "rate_mbps = 1e+300 is out of range: at rtt_ms = 12.5 its auto-sized queue (2x BDP) does "
       "not fit in size_t; set queue_packets"},
      {[](ScenarioSpec* s) { s->topology = "ring"; },
       "unknown topology 'ring' (none|dumbbell|parking_lot)"},
      {[](ScenarioSpec* s) { s->hops = 17; }, "hops must be in [1, 16], got 17"},
      {[](ScenarioSpec* s) { s->hops = 0; }, "hops must be in [1, 16], got 0"},
      {[](ScenarioSpec* s) { s->cross_onoff = -1; }, "cross_iperf/cross_onoff must be >= 0"},
      {[](ScenarioSpec* s) {
         s->topology = "dumbbell";
         s->hops = 2;
       },
       "dumbbell topology is single-hop; set hops via topology=parking_lot"},
      {[](ScenarioSpec* s) {
         s->topology = "parking_lot";
         s->app = "accuracy";
       },
       "topology runs use app=legacy (got 'accuracy')"},
      {[](ScenarioSpec* s) {
         s->topology = "dumbbell";
         s->profile = "lan";
       },
       "topology runs use profile=wired (got 'lan')"},
      {[](ScenarioSpec* s) {
         s->topology = "dumbbell";
         s->element_mode = "wireless";
       },
       "element_mode=wireless is single-path only"},
      {[](ScenarioSpec* s) { s->cross_iperf = 1; }, "cross traffic needs a topology"},
      {[](ScenarioSpec* s) {
         s->app = "accuracy";
         s->num_flows = 2;
       },
       "app=accuracy runs one flow; num_flows must be 1, got 2"},
      {[](ScenarioSpec* s) {
         s->app = "accuracy";
         s->element_mode = "first";
       },
       "app=accuracy always measures flow 0; element_mode must be off (got 'first')"},
      {[](ScenarioSpec* s) {
         s->app = "accuracy";
         s->cc = "bbr";
       },
       "app=accuracy runs Cubic; cc must be cubic (got 'bbr')"},
      // Valid specs.
      {[](ScenarioSpec*) {}, ""},
      {[](ScenarioSpec* s) { s->app = "accuracy"; }, ""},
      {[](ScenarioSpec* s) {
         s->topology = "parking_lot";
         s->hops = 3;
         s->cross_iperf = 1;
         s->num_flows = 4;
       },
       ""},
      {[](ScenarioSpec* s) {
         s->profile = "lte";
         s->rate_mbps = 1e300;
       },
       ""},
  };
  for (size_t i = 0; i < std::size(kCases); ++i) {
    ScenarioSpec spec;
    kCases[i].set(&spec);
    EXPECT_EQ(spec.Validate(), kCases[i].message) << "case " << i;
  }
}

struct TopologyCase {
  void (*set)(TopologySpec* spec);
  const char* message;
};

// The same for TopologySpec::Validate.
TEST(ScenarioTest, TopologyValidateNamesEachProblem) {
  const TopologyCase kCases[] = {
      {[](TopologySpec* s) { s->host_pairs = 0; }, "host_pairs must be >= 1, got 0"},
      {[](TopologySpec* s) { s->hops = 0; }, "hops must be >= 1, got 0"},
      {[](TopologySpec* s) { s->hops = 3; }, "dumbbell topologies have exactly one hop, got 3"},
      {[](TopologySpec* s) {
         s->shape = TopologyShape::kParkingLot;
         s->hops = 17;
       },
       "hops must be <= 16, got 17"},
      {[](TopologySpec* s) { s->bottleneck_rate = DataRate(); },
       "bottleneck_rate must be positive"},
      {[](TopologySpec* s) { s->queue_limit_packets = 0; }, "queue_limit_packets must be >= 1"},
      {[](TopologySpec*) {}, ""},
      {[](TopologySpec* s) {
         s->shape = TopologyShape::kParkingLot;
         s->hops = 16;
       },
       ""},
  };
  for (size_t i = 0; i < std::size(kCases); ++i) {
    TopologySpec spec;
    kCases[i].set(&spec);
    EXPECT_EQ(spec.Validate(), kCases[i].message) << "case " << i;
  }
}

// A suite that names a field twice in one entry used to run the last value.
TEST(ScenarioTest, RejectsDuplicateField) {
  ScenarioSuite suite;
  std::string err;
  EXPECT_FALSE(
      ScenarioSuite::ParseJson(R"({"scenarios":[{"qdisc":"codel","qdisc":"pie"}]})", &suite, &err));
  EXPECT_EQ(err, "JSON parse error at offset 31: duplicate key 'qdisc'");
}

TEST(ScenarioTest, BuildPathWiredAutoQueueMatchesPaperFormula) {
  ScenarioSpec spec;
  spec.rate_mbps = 30;
  spec.rtt_ms = 50;
  spec.queue_packets = 0;
  PathConfig path = spec.BuildPath();
  // 2 * BDP = 2 * 30e6/8 * 0.05 / 1500 = 250 packets.
  EXPECT_EQ(path.queue_limit_packets, 250u);
  EXPECT_EQ(path.one_way_delay.nanos(), 25'000'000);
  spec.rate_mbps = 1;  // tiny BDP floors at 60
  path = spec.BuildPath();
  EXPECT_EQ(path.queue_limit_packets, 60u);
  spec.queue_packets = 123;  // explicit wins
  path = spec.BuildPath();
  EXPECT_EQ(path.queue_limit_packets, 123u);
}

TEST(ScenarioTest, BuildPathProfilesApplyQdiscOverride) {
  ScenarioSpec spec;
  spec.profile = "lte";
  spec.qdisc = "codel";
  PathConfig path = spec.BuildPath();
  EXPECT_EQ(path.link, LinkType::kLte);
  EXPECT_EQ(path.qdisc, QdiscType::kCoDel);
  EXPECT_EQ(path.queue_limit_packets, LteProfile().queue_limit_packets);
}

TEST(ScenarioTest, QdiscNamesRoundTrip) {
  for (QdiscType q : {QdiscType::kPfifoFast, QdiscType::kCoDel, QdiscType::kFqCoDel,
                      QdiscType::kPie, QdiscType::kRed}) {
    QdiscType back;
    ASSERT_TRUE(ParseQdisc(DescribeQdisc(q), &back)) << DescribeQdisc(q);
    EXPECT_EQ(back, q);
  }
}

// ---------------------------------------------------------------------------
// Runner flags
// ---------------------------------------------------------------------------

TEST(RunnerFlagsTest, ParsesStandardFlags) {
  const char* argv[] = {"prog", "--jobs", "3", "--seed", "100", "--out", "r.json",
                        "--scenarios", "s.json"};
  Flags flags;
  flags.Parse(9, argv);
  RunnerFlags rf = ParseRunnerFlags(flags);
  EXPECT_EQ(rf.jobs, 3);
  EXPECT_EQ(rf.seed_offset, 100u);
  EXPECT_EQ(rf.out, "r.json");
  EXPECT_EQ(rf.scenarios, "s.json");
}

TEST(RunnerFlagsTest, JobsFallsBackToEnvThenHardware) {
  ::setenv("ELEMENT_JOBS", "5", 1);
  const char* argv[] = {"prog"};
  Flags flags;
  flags.Parse(1, argv);
  EXPECT_EQ(ParseRunnerFlags(flags).jobs, 5);
  ::setenv("ELEMENT_JOBS", "not-a-number", 1);
  EXPECT_GE(DefaultJobs(), 1);
  ::unsetenv("ELEMENT_JOBS");
  EXPECT_GE(DefaultJobs(), 1);
}

// ---------------------------------------------------------------------------
// Fleet executor
// ---------------------------------------------------------------------------

std::vector<ScenarioSpec> TinySuite() {
  ScenarioSuite suite;
  std::string err;
  bool ok = ScenarioSuite::ParseJson(R"({
    "suite": "tiny",
    "defaults": {"rate_mbps": 5, "rtt_ms": 20, "duration_s": 0.5, "warmup_s": 0.1},
    "scenarios": [{"name": "acc", "app": "accuracy", "seed": 42}],
    "sweeps": [{"name": "grid", "qdisc": ["pfifo_fast", "codel"],
                "cc": ["cubic", "reno"], "seed": {"base": 1, "count": 1}}]
  })",
                                     &suite, &err);
  EXPECT_TRUE(ok) << err;
  return suite.scenarios;
}

TEST(FleetTest, AggregateJsonIsIdenticalForJobs1AndJobs8) {
  std::vector<ScenarioSpec> specs = TinySuite();
  FleetOptions serial;
  serial.jobs = 1;
  FleetSummary s1 = RunFleet(specs, serial);
  FleetOptions parallel;
  parallel.jobs = 8;
  FleetSummary s8 = RunFleet(specs, parallel);
  EXPECT_EQ(s1.completed, specs.size());
  EXPECT_EQ(s8.completed, specs.size());
  std::string j1 = FleetReportJson("tiny", s1, /*deterministic=*/true).Dump();
  std::string j8 = FleetReportJson("tiny", s8, /*deterministic=*/true).Dump();
  EXPECT_EQ(j1, j8);
  EXPECT_NE(j1.find("\"aggregate\""), std::string::npos);
}

TEST(FleetTest, AggregateMergeMatchesWholeFold) {
  std::vector<ScenarioSpec> specs = TinySuite();
  FleetOptions options;
  options.jobs = 2;
  FleetSummary summary = RunFleet(specs, options);
  ASSERT_EQ(summary.completed, specs.size());

  FleetAggregate whole = AggregateResults(summary.results);
  // Split the results anywhere and merge the partial aggregates. Bin counts
  // and rank statistics are integer/exact, so they match bitwise; the float
  // sums fold in a different association order, so compare those with a
  // tight relative tolerance. (Byte-identity is only promised for a fixed
  // fold order — the jobs=1 vs jobs=8 test above.)
  FleetAggregate first;
  FleetAggregate second;
  for (size_t i = 0; i < summary.results.size(); ++i) {
    (i < 2 ? first : second).Add(summary.results[i]);
  }
  first.metrics.Merge(second.metrics);
  EXPECT_EQ(first.scenarios(), whole.scenarios());
  EXPECT_EQ(first.flows(), whole.flows());
  EXPECT_EQ(first.retransmits(), whole.retransmits());
  const Histogram& first_e2e = first.metrics.HistOrEmpty("e2e_delay_s");
  const Histogram& whole_e2e = whole.metrics.HistOrEmpty("e2e_delay_s");
  EXPECT_EQ(first_e2e.bins(), whole_e2e.bins());
  EXPECT_EQ(first_e2e.count(), whole_e2e.count());
  EXPECT_DOUBLE_EQ(first_e2e.min(), whole_e2e.min());
  EXPECT_DOUBLE_EQ(first_e2e.max(), whole_e2e.max());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(first_e2e.Quantile(q), whole_e2e.Quantile(q));
    EXPECT_DOUBLE_EQ(first.metrics.HistOrEmpty("sender_err_s").Quantile(q),
                     whole.metrics.HistOrEmpty("sender_err_s").Quantile(q));
  }
  const RunningStats& first_gp = first.metrics.StatsOrEmpty("goodput_mbps");
  const RunningStats& whole_gp = whole.metrics.StatsOrEmpty("goodput_mbps");
  EXPECT_EQ(first_gp.count(), whole_gp.count());
  EXPECT_NEAR(first_gp.mean(), whole_gp.mean(), std::abs(whole_gp.mean()) * 1e-12);
  EXPECT_NEAR(first_e2e.sum(), whole_e2e.sum(), std::abs(whole_e2e.sum()) * 1e-12);
}

TEST(FleetTest, CancelsRemainingScenariosOnFirstFailure) {
  std::vector<ScenarioSpec> specs = TinySuite();
  ASSERT_GE(specs.size(), 3u);
  FleetOptions options;
  options.jobs = 1;  // deterministic order: failure at index 1 cancels 2..N
  options.run = [](const ScenarioSpec& spec) {
    ScenarioResult r;
    r.spec = spec;
    if (spec.name == "grid/pfifo_fast/cubic") {  // second scenario in order
      r.ok = false;
      r.error = "synthetic failure";
    } else {
      r.ok = true;
    }
    return r;
  };
  FleetSummary summary = RunFleet(specs, options);
  EXPECT_EQ(summary.completed, 1u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.cancelled, specs.size() - 2);
  EXPECT_TRUE(summary.results[2].cancelled);
  EXPECT_FALSE(summary.results[0].cancelled);
}

TEST(FleetTest, ProgressCallbackSeesEveryRun) {
  std::vector<ScenarioSpec> specs = TinySuite();
  size_t calls = 0;
  size_t max_finished = 0;
  FleetOptions options;
  options.jobs = 4;
  options.progress = [&](const FleetProgress& p) {
    ++calls;  // serialized under the fleet lock
    max_finished = std::max(max_finished, p.finished);
    EXPECT_EQ(p.total, 5u);
    EXPECT_NE(p.last, nullptr);
  };
  FleetSummary summary = RunFleet(specs, options);
  EXPECT_EQ(summary.completed, specs.size());
  EXPECT_EQ(calls, specs.size());
  EXPECT_EQ(max_finished, specs.size());
}

// Figure 8b's staggered flows: one background flow joins at 20 s of a 25 s
// run. The run repeats exactly, and the measured flow's goodput drops below
// the same run without it.
TEST(ExperimentTest, StaggeredFlowJoinsAtTwentySeconds) {
  const PathConfig path = ScenarioSpec{}.BuildPath();
  const TimeDelta period = TimeDelta::FromMillis(10);
  AccuracyRun first = RunAccuracyExperiment(11, path, 25.0, period, /*background_flows=*/1);
  AccuracyRun second = RunAccuracyExperiment(11, path, 25.0, period, /*background_flows=*/1);
  ASSERT_FALSE(first.sender.errors.samples().empty());
  EXPECT_EQ(first.sender.errors.samples(), second.sender.errors.samples());
  EXPECT_EQ(first.receiver.errors.samples(), second.receiver.errors.samples());

  AccuracyRun alone = RunAccuracyExperiment(11, path, 25.0);
  EXPECT_LT(first.goodput_mbps, alone.goodput_mbps);
}

TEST(FleetTest, EmptySuiteReturnsEmptySummary) {
  FleetSummary summary = RunFleet({}, FleetOptions{});
  EXPECT_TRUE(summary.results.empty());
  EXPECT_EQ(summary.completed, 0u);
}

TEST(FleetTest, InvalidSpecFailsWithoutRunning) {
  ScenarioSpec bad;
  bad.name = "bad";
  bad.cc = "quic";
  FleetOptions options;
  options.jobs = 1;
  FleetSummary summary = RunFleet({bad}, options);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_NE(summary.results[0].error.find("unknown cc"), std::string::npos);
}

}  // namespace
}  // namespace element
