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
//   emit_ring      — 20M records emitted into a 1024-record per-flow flight
//                    recorder in steady-state overwrite.
//   tracer_records — 1M segments of one steady in-order flow (writes,
//                    transmissions, arrivals a 64-segment window later,
//                    reads of two segments) fed to one GroundTruthTracer.
//                    Its per-record lookups must not grow with the run.
//
// Usage:
//   micro_telemetry                      print a JSON metrics object
//   micro_telemetry --floor <file.json>  also enforce min_telemetry_* floors
//                                        from the file (exit 1 on a regression
//                                        or a floor key missing from the file)

#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/common/json.h"
#include "src/telemetry/spine.h"
#include "src/trace/ground_truth.h"

#include "bench/micro_floor.h"

namespace element {
namespace {

// Forces the compiler to assume memory changed, so guard reads are not
// hoisted out of the benchmark loop.
inline void ClobberMemory() { asm volatile("" : : : "memory"); }

constexpr int kDisabledChecks = 100'000'000;
constexpr int kEmitRecords = 20'000'000;
constexpr uint64_t kTracerSegments = 1'000'000;

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
        flow.Emit(telemetry::TraceRecord::Delay(
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
  telemetry::TelemetrySpine spine;
  telemetry::FlowTelemetry flow;
  flow.Bind(&spine, /*flow_id=*/1);
  telemetry::TraceRing* ring = spine.EnsureRing(1, /*capacity_records=*/1024);
  double secs = Timed([&] {
    for (int i = 0; i < kEmitRecords; ++i) {
      if (flow.recording()) {
        flow.Emit(telemetry::TraceRecord::Range(
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

double BenchTracerRecords() {
  constexpr uint64_t kMss = 1448;
  constexpr uint64_t kWindow = 64;  // segments between transmission and arrival
  GroundTruthTracer::Config config;
  config.keep_time_series = false;
  GroundTruthTracer tracer(config);
  uint64_t records = 0;
  auto feed = [&](telemetry::RecordKind kind, uint64_t first_seg, uint64_t end_seg, SimTime t) {
    tracer.OnRecord(
        telemetry::TraceRecord::Range(kind, /*flow_id=*/1, t, first_seg * kMss, end_seg * kMss));
    ++records;
  };
  double secs = Timed([&] {
    for (uint64_t i = 0; i < kTracerSegments; ++i) {
      SimTime t = SimTime::FromNanos(static_cast<int64_t>(i) * 10'000);
      if (i % 8 == 0) {
        feed(telemetry::RecordKind::kAppWrite, i, i + 8, t);
      }
      feed(telemetry::RecordKind::kTcpTransmit, i, i + 1, t);
      if (i >= kWindow) {
        feed(telemetry::RecordKind::kTcpRxSegment, i - kWindow, i - kWindow + 1, t);
        if (i % 2 == 1) {
          feed(telemetry::RecordKind::kAppRead, i - kWindow - 1, i - kWindow + 1, t);
        }
      }
    }
  });
  uint64_t arrivals = kTracerSegments - kWindow;
  if (tracer.sender_delay().count() != kTracerSegments ||
      tracer.receiver_delay().count() != arrivals ||
      tracer.end_to_end_delay().count() != arrivals) {
    std::fprintf(stderr, "tracer_records lost samples\n");
    std::exit(1);
  }
  return static_cast<double>(records) / secs;
}

std::vector<FloorCheck> Run() {
  json::Value out = json::Value::Object();
  double guard = BenchDisabledGuard();
  double emit_sink = BenchEmitSink();
  double emit_ring = BenchEmitRing();
  double tracer_records = BenchTracerRecords();
  out.Set("telemetry_disabled_guard_checks_per_sec", json::Value::Number(guard));
  out.Set("telemetry_emit_sink_records_per_sec", json::Value::Number(emit_sink));
  out.Set("telemetry_emit_ring_records_per_sec", json::Value::Number(emit_ring));
  out.Set("tracer_records_per_sec", json::Value::Number(tracer_records));
  std::printf("%s\n", out.Dump(2).c_str());

  return {{"min_telemetry_disabled_guard_checks_per_sec", guard},
          {"min_telemetry_emit_sink_records_per_sec", emit_sink},
          {"min_telemetry_emit_ring_records_per_sec", emit_ring},
          {"min_tracer_records_per_sec", tracer_records}};
}

}  // namespace
}  // namespace element

int main(int argc, char** argv) {
  return element::MicroBenchMain("micro_telemetry", argc, argv, element::Run);
}
