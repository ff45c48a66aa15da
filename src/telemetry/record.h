// The unit of the telemetry spine: one fixed-size, trivially-copyable event
// record. Every instrumented layer (tcpsim stack probes, netsim qdiscs, topo
// routers, element estimators) emits the same 48-byte TraceRecord into the
// per-run spine, which fans it to ring buffers and registered sinks. One
// record type — instead of one callback interface per layer — is what lets a
// single ring buffer, a single export path, and a single overhead model cover
// the whole simulator (the Dapper/NetFlow consolidation the paper's
// measurement layer mirrors).

#ifndef ELEMENT_SRC_TELEMETRY_RECORD_H_
#define ELEMENT_SRC_TELEMETRY_RECORD_H_

#include <cstdint>
#include <type_traits>

#include "src/common/time.h"

namespace element {
namespace telemetry {

enum class RecordKind : uint8_t {
  kNone = 0,
  // TCP stack layer boundaries (the paper's four perf tracepoints).
  kAppWrite,      // bytes accepted into the send buffer by a socket write
  kTcpTransmit,   // bytes handed to the lower layers (tcp_transmit_skb)
  kTcpRxSegment,  // data segment arrived at the TCP layer (tcp_v4_do_rcv)
  kAppRead,       // bytes consumed from the receive buffer by a socket read
  kSegmentAcked,  // cumulative ACK advanced snd_una over this range
  kCcStateChange, // congestion-control episode transition (recovery/RTO)
  // Qdisc events at the bottleneck.
  kQdiscEnqueue,
  kQdiscDequeue,  // packet left the queue; u.range.aux = its sojourn in ns
  kQdiscDrop,  // pre-queue or from-queue (see flags)
  kQdiscMark,  // ECN CE mark instead of drop
  // A delay estimate or ground-truth sample with the paper's 3-way
  // decomposition. ELEMENT's estimators fill only their own component
  // (sender_s or receiver_s) and write 0.0 in the other two.
  kDelaySample,
};

// Flag bits (meaning depends on kind).
inline constexpr uint8_t kFlagRetransmit = 1u << 0;  // kTcpTransmit
inline constexpr uint8_t kFlagOutOfOrder = 1u << 1;  // kTcpRxSegment
inline constexpr uint8_t kFlagFromQueue = 1u << 2;   // kQdiscDrop: admitted pkt
inline constexpr uint8_t kFlagEstimate = 1u << 3;    // kDelaySample: ELEMENT
                                                     // estimate (vs ground truth)

// kCcStateChange episode codes, carried in TraceRecord::size.
enum class CcEpisode : uint32_t {
  kOpen = 0,         // left recovery (cumulative ACK passed recovery_end)
  kRecovery = 1,     // entered fast recovery (scoreboard marked new losses)
  kRtoRecovery = 2,  // retransmission timeout fired
};

struct TraceRecord {
  SimTime t;         // when the event happened (loop time)
  uint64_t flow_id;  // 0 = not flow-specific
  RecordKind kind = RecordKind::kNone;
  uint8_t flags = 0;
  uint16_t source = 0;  // producer tag (e.g. qdisc/hop index), 0 = unset
  uint32_t size = 0;    // packet/segment bytes, or CC state code
  union {
    struct {
      uint64_t begin;  // byte ranges are half-open: [begin, end)
      uint64_t end;
      uint64_t aux;  // kind-specific (e.g. snd_una after an ACK)
    } range;
    struct {
      double sender_s;
      double network_s;
      double receiver_s;
    } delay;
  } u = {{0, 0, 0}};

  static TraceRecord Range(RecordKind kind, uint64_t flow_id, SimTime t, uint64_t begin,
                           uint64_t end, uint8_t flags = 0) {
    TraceRecord r;
    r.t = t;
    r.flow_id = flow_id;
    r.kind = kind;
    r.flags = flags;
    r.u.range = {begin, end, 0};
    return r;
  }

  static TraceRecord Delay(uint64_t flow_id, SimTime t, double sender_s, double network_s,
                           double receiver_s, uint8_t flags = 0) {
    TraceRecord r;
    r.t = t;
    r.flow_id = flow_id;
    r.kind = RecordKind::kDelaySample;
    r.flags = flags;
    r.u.delay = {sender_s, network_s, receiver_s};
    return r;
  }
};

// Rings and sinks copy records by value; keep the record layout boring and
// stable.
static_assert(sizeof(TraceRecord) == 48, "TraceRecord must stay 48 bytes");
static_assert(std::is_trivially_copyable<TraceRecord>::value,
              "TraceRecord must be memcpy-safe");

// Consumes records from the spine. GroundTruthTracer implements this; attach
// via FlowTelemetry::AttachSink (per-flow) or TelemetrySpine::AttachSink
// (every record of the run).
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void OnRecord(const TraceRecord& record) = 0;
};

}  // namespace telemetry
}  // namespace element

#endif  // ELEMENT_SRC_TELEMETRY_RECORD_H_
