// Telemetry-spine microbenchmark: the numbers behind BENCH_telemetry.json and
// the perf-smoke CI floor for src/telemetry/.
//
// Three workloads, each reported as a rate:
//   disabled_guard — the hot-path cost model: a bound FlowTelemetry with no
//                    consumers anywhere, checked 100M times. This is the
//                    branch every socket/estimator event pays when telemetry
//                    is off; it must stay in the hundreds of millions per
//                    second for the ≤2% end-to-end overhead budget to hold.
//   emit_sink      — 20M delay records emitted through the spine to one
//                    attached run-wide sink (record construction + fan-out).
//   emit_ring      — 20M records emitted into a per-flow flight recorder in
//                    steady-state overwrite (arena blocks warm).
//
// Usage:
//   micro_telemetry                      print a JSON metrics object
//   micro_telemetry --floor <file.json>  also enforce min_telemetry_* floors
//                                        from the file (exit 1 on regression)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/arena.h"
#include "src/common/json.h"
#include "src/telemetry/spine.h"

namespace element {
namespace {

double NowSeconds() {
  auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

template <typename Body>
double Timed(Body&& body) {
  double start = NowSeconds();
  body();
  return NowSeconds() - start;
}

// Forces the compiler to assume memory changed, so guard reads are not
// hoisted out of the benchmark loop.
inline void ClobberMemory() { asm volatile("" : : : "memory"); }

constexpr int kDisabledChecks = 100'000'000;
constexpr int kEmitRecords = 20'000'000;

double BenchDisabledGuard() {
  telemetry::TelemetrySpine spine;
  telemetry::FlowTelemetry flow;
  flow.Bind(&spine, /*flow_id=*/1);
  uint64_t armed = 0;
  double secs = Timed([&] {
    for (int i = 0; i < kDisabledChecks; ++i) {
      if (flow.recording()) {
        ++armed;  // never taken: no sinks, no rings
      }
      ClobberMemory();
    }
  });
  if (armed != 0) {
    std::fprintf(stderr, "disabled_guard fired with no consumers\n");
    std::exit(1);
  }
  return kDisabledChecks / secs;
}

class CountingSink : public telemetry::RecordSink {
 public:
  void OnRecord(const telemetry::TraceRecord& r) override {
    ++records;
    bytes += r.size;
  }
  uint64_t records = 0;
  uint64_t bytes = 0;
};

double BenchEmitSink() {
  telemetry::TelemetrySpine spine;
  telemetry::FlowTelemetry flow;
  flow.Bind(&spine, /*flow_id=*/1);
  CountingSink sink;
  spine.AttachSink(&sink);
  double secs = Timed([&] {
    for (int i = 0; i < kEmitRecords; ++i) {
      if (flow.recording()) {
        flow.EmitAlways(telemetry::TraceRecord::Delay(
            flow.flow_id(), SimTime::FromNanos(i), 1e-3, 2e-3, 3e-3));
      }
    }
  });
  if (sink.records != static_cast<uint64_t>(kEmitRecords)) {
    std::fprintf(stderr, "emit_sink lost records: %llu\n",
                 static_cast<unsigned long long>(sink.records));
    std::exit(1);
  }
  return kEmitRecords / secs;
}

double BenchEmitRing() {
  FreeListArena arena;
  telemetry::TelemetrySpine spine(&arena);
  telemetry::FlowTelemetry flow;
  flow.Bind(&spine, /*flow_id=*/1);
  telemetry::TraceRing* ring = spine.EnsureRing(1, /*capacity_records=*/1024);
  double secs = Timed([&] {
    for (int i = 0; i < kEmitRecords; ++i) {
      if (flow.recording()) {
        flow.EmitAlways(telemetry::TraceRecord::Range(
            telemetry::RecordKind::kAppWrite, flow.flow_id(), SimTime::FromNanos(i),
            static_cast<uint64_t>(i), static_cast<uint64_t>(i) + 1448));
      }
    }
  });
  if (ring->total_pushed() != static_cast<uint64_t>(kEmitRecords)) {
    std::fprintf(stderr, "emit_ring lost records: %llu\n",
                 static_cast<unsigned long long>(ring->total_pushed()));
    std::exit(1);
  }
  return kEmitRecords / secs;
}

int Run(const std::string& floor_path) {
  json::Value out = json::Value::Object();
  double guard = BenchDisabledGuard();
  double emit_sink = BenchEmitSink();
  double emit_ring = BenchEmitRing();
  out.Set("telemetry_disabled_guard_checks_per_sec", json::Value::Number(guard));
  out.Set("telemetry_emit_sink_records_per_sec", json::Value::Number(emit_sink));
  out.Set("telemetry_emit_ring_records_per_sec", json::Value::Number(emit_ring));
  std::printf("%s\n", out.Dump(2).c_str());

  if (floor_path.empty()) {
    return 0;
  }
  std::ifstream in(floor_path);
  if (!in) {
    std::fprintf(stderr, "micro_telemetry: cannot open floor file %s\n", floor_path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  json::Value floor;
  std::string error;
  if (!json::Value::Parse(buf.str(), &floor, &error)) {
    std::fprintf(stderr, "micro_telemetry: bad floor file: %s\n", error.c_str());
    return 2;
  }
  int failures = 0;
  auto check = [&](const char* key, double measured) {
    const json::Value* min = floor.Find(key);
    if (min == nullptr) {
      return;
    }
    if (measured < min->AsDouble()) {
      std::fprintf(stderr, "micro_telemetry: %s = %.3g below floor %.3g\n", key, measured,
                   min->AsDouble());
      ++failures;
    }
  };
  check("min_telemetry_disabled_guard_checks_per_sec", guard);
  check("min_telemetry_emit_sink_records_per_sec", emit_sink);
  check("min_telemetry_emit_ring_records_per_sec", emit_ring);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace element

int main(int argc, char** argv) {
  std::string floor_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--floor" && i + 1 < argc) {
      floor_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--floor floors.json]\n", argv[0]);
      return 2;
    }
  }
  return element::Run(floor_path);
}
