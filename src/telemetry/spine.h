// The telemetry spine: one per-run hub that every producer publishes through.
//
// Topology
//   TelemetrySpine (one per run/Testbed/Network)
//     ├── per-flow TraceRing  flight recorders (own storage, optional)
//     └── spine RecordSinks   run-wide consumers (see every record)
//   FlowTelemetry (by value inside each producer: socket, estimator)
//     └── up to kMaxSinks per-flow RecordSinks (e.g. a GroundTruthTracer)
//
// Consumers: only spine sinks and rings turn the spine on. A per-flow sink
// turns on its own producer and nothing else, so a run whose only consumers
// are per-flow tracers dispatches nothing through the spine and shared
// producers (qdiscs) build no records.
//
// Overhead model (the ≤2% disabled-sink budget in bench/perf_floor.json):
// FlowTelemetry::recording() is the only call on hot paths. When nothing is
// attached it is two predictable compares (local sink count, spine recording
// flag) and no loads beyond the producer's own cache line — cheaper than the
// virtual observer dispatch it replaces. Every producer builds its record and
// calls Emit() only after that guard, so a disabled spine never materializes
// a TraceRecord.
//
// Determinism rules (docs/telemetry.md):
//   - attach sinks and create rings before the loop runs; mid-run attachment
//     flips recording() and changes which branches execute, which is fine for
//     correctness but changes perf, not results. Sinks are never detached,
//     so a sink must stay alive while its producers emit;
//   - record emission order is simulation event order, so ring contents and
//     sink callback sequences are seed-stable.

#ifndef ELEMENT_SRC_TELEMETRY_SPINE_H_
#define ELEMENT_SRC_TELEMETRY_SPINE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/telemetry/record.h"
#include "src/telemetry/trace_ring.h"

namespace element {
namespace telemetry {

class TelemetrySpine {
 public:
  TelemetrySpine() = default;

  TelemetrySpine(const TelemetrySpine&) = delete;
  TelemetrySpine& operator=(const TelemetrySpine&) = delete;

  // True when a spine sink or a ring is attached. Shared producers gate *all*
  // telemetry work on this, so a run with no spine consumers pays only the
  // check itself.
  bool recording() const { return consumers_ != 0; }

  // Run-wide sinks: see every record emitted by every bound producer.
  void AttachSink(RecordSink* sink) {
    ELEMENT_CHECK(sink != nullptr);
    sinks_.push_back(sink);
    ++consumers_;
  }

  // Creates (or returns) the flight recorder for `flow_id`, holding its last
  // `capacity_records` records. Create rings before the run: the ring's
  // storage is allocated here.
  TraceRing* EnsureRing(uint64_t flow_id, size_t capacity_records) {
    auto it = rings_.find(flow_id);
    if (it == rings_.end()) {
      it = rings_.emplace(flow_id, std::make_unique<TraceRing>(capacity_records)).first;
      ++consumers_;
    }
    return it->second.get();
  }

  // Routes a record to the flow's ring (if any) and all spine sinks. Callers
  // without a FlowTelemetry (qdiscs, routers — producers shared by many
  // flows) call this directly, already gated on recording().
  void Dispatch(const TraceRecord& record) {
    if constexpr (kAuditsEnabled) {
      ELEMENT_AUDIT(record.kind != RecordKind::kNone) << "dispatching an empty record";
    }
    if (!rings_.empty()) {
      auto it = rings_.find(record.flow_id);
      if (it != rings_.end()) {
        it->second->Push(record);
      }
    }
    for (RecordSink* sink : sinks_) {
      sink->OnRecord(record);
    }
    ++dispatched_;
  }

  uint64_t dispatched() const { return dispatched_; }

 private:
  std::vector<RecordSink*> sinks_;
  std::map<uint64_t, std::unique_ptr<TraceRing>> rings_;
  size_t consumers_ = 0;
  uint64_t dispatched_ = 0;
};

// The producer-side handle, held by value so emitting costs no indirection
// when idle. Producers check recording() and then call Emit(); the guard
// compiles to two compares on the disabled path.
class FlowTelemetry {
 public:
  static constexpr size_t kMaxSinks = 4;

  FlowTelemetry() = default;

  void Bind(TelemetrySpine* spine, uint64_t flow_id) {
    spine_ = spine;
    flow_id_ = flow_id;
  }
  TelemetrySpine* spine() const { return spine_; }
  uint64_t flow_id() const { return flow_id_; }

  // Per-flow sinks see only this producer's records (both sockets of a flow
  // bind separate FlowTelemetry instances; attach the same sink to both to
  // observe the whole flow, which is what GroundTruthTracer does). They are
  // not spine consumers: attaching one leaves the spine off.
  void AttachSink(RecordSink* sink) {
    ELEMENT_CHECK(sink != nullptr);
    ELEMENT_CHECK(sink_count_ < kMaxSinks) << "too many per-flow sinks";
    sinks_[sink_count_++] = sink;
  }

  // The hot-path guard: emit-side work happens only when someone listens.
  bool recording() const {
    return sink_count_ != 0 || (spine_ != nullptr && spine_->recording());
  }

  // Delivers a record to this producer's sinks and the spine. The caller
  // checks recording() first and builds the record only when it is true.
  void Emit(const TraceRecord& record) {
    if constexpr (kAuditsEnabled) {
      ELEMENT_AUDIT(recording()) << "Emit() without a recording() check";
      ELEMENT_AUDIT(record.t >= last_t_) << "telemetry records emitted out of order";
      last_t_ = record.t;
    }
    for (size_t i = 0; i < sink_count_; ++i) {
      sinks_[i]->OnRecord(record);
    }
    if (spine_ != nullptr && spine_->recording()) {
      spine_->Dispatch(record);
    }
  }

 private:
  TelemetrySpine* spine_ = nullptr;
  uint64_t flow_id_ = 0;
  RecordSink* sinks_[kMaxSinks] = {nullptr, nullptr, nullptr, nullptr};
  size_t sink_count_ = 0;
  SimTime last_t_ = SimTime::Zero();  // audit-only monotonicity check
};

}  // namespace telemetry
}  // namespace element

#endif  // ELEMENT_SRC_TELEMETRY_SPINE_H_
