// Packet-level TCP endpoint with a BSD-socket-shaped user API.
//
// One TcpSocket is one endpoint of a connection (both sender and receiver
// halves are present; the experiments mostly push data one way). The model
// covers what the paper's observations depend on:
//   - byte-accurate send buffer whose occupancy *is* the sender system delay,
//   - Linux-style ratcheting send-buffer auto-tuning (sndbuf ~ 2x cwnd),
//   - pluggable congestion control (Reno/Cubic/Vegas/BBR/LEDBAT) with pacing,
//   - SACK loss detection (send_scoreboard.h): a segment is lost once it lies
//     3 MSS below the highest SACKed byte, a retransmission again after
//     srtt + max(4 rttvar, srtt / 2), and everything un-SACKed on an RTO
//     (RFC 6298),
//   - receiver out-of-order queue (where loss-induced receiver delay forms),
//   - delayed ACKs, flow control, optional ECN,
//   - getsockopt(TCP_INFO) mirror for the ELEMENT estimators.

#ifndef ELEMENT_SRC_TCPSIM_TCP_SOCKET_H_
#define ELEMENT_SRC_TCPSIM_TCP_SOCKET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/evloop/event_loop.h"
#include "src/netsim/pipe.h"
#include "src/tcpsim/congestion_control.h"
#include "src/tcpsim/send_scoreboard.h"
#include "src/tcpsim/tcp_info.h"
#include "src/telemetry/spine.h"
#include "src/tcpsim/tcp_segment.h"

namespace element {

class TcpSocket : public PacketSink {
 public:
  struct Config {
    std::string congestion_control = "cubic";
    bool ecn = false;

    // Auto-tuning ratchets the send buffer up to at most this (tcp_wmem max).
    size_t sndbuf_max_bytes = 4 * 1024 * 1024;

    // DRWA-style receiver-side window moderation (the paper's related-work
    // baseline [37]): the advertised window is capped near
    // arrival_rate * 150 ms, bounding the sender's inflight (and, through the
    // 2x-cwnd sndbuf ratchet, its buffer) from the receiver.
    bool drwa_rcv_window_moderation = false;
  };

  // Send buffer, Linux tcp_wmem semantics: it starts at this size, and
  // auto-tuning ratchets it up toward ~2x the congestion window until
  // SetSndBuf pins it.
  static constexpr size_t kInitialSndBufBytes = 64 * 1024;
  // The receive buffer the advertised window is carved from.
  static constexpr uint64_t kRcvBufBytes = 8 * 1024 * 1024;

  // A connection lives until the run ends: there is no teardown.
  enum class State { kClosed, kListen, kSynSent, kEstablished };

  TcpSocket(EventLoop* loop, Rng rng, Config config, uint64_t flow_id, PacketSink* tx,
            Demux* rx_demux);
  ~TcpSocket() override;

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // ---- Connection lifecycle ----
  void Connect();  // active open (client)
  void Listen();   // passive open (server)
  bool established() const { return state_ == State::kEstablished; }
  void SetEstablishedCallback(std::function<void()> cb) {  // lint_sim: allow(std-function)
    established_cb_ = std::move(cb);
  }

  // ---- Application I/O (non-blocking) ----
  // Accepts up to `n` bytes into the send buffer; returns bytes accepted.
  size_t Write(size_t n);
  // Consumes up to `max` bytes from the receive buffer; returns bytes read.
  size_t Read(size_t max);
  size_t ReadableBytes() const { return static_cast<size_t>(rcv_nxt_ - read_seq_); }
  uint64_t app_bytes_written() const { return write_seq_; }
  uint64_t app_bytes_read() const { return read_seq_; }

  // Invoked (once per transition) when send-buffer space frees after a short
  // write, and when new data becomes readable.
  void SetWritableCallback(std::function<void()> cb) {  // lint_sim: allow(std-function)
    writable_cb_ = std::move(cb);
  }
  void SetReadableCallback(std::function<void()> cb) {  // lint_sim: allow(std-function)
    readable_cb_ = std::move(cb);
  }

  // ---- Socket options ----
  TcpInfoData GetTcpInfo() const;  // getsockopt(TCP_INFO)
  // The paper's §7 kernel-shared-page optimization: a versioned snapshot that
  // is only recomputed when the connection state actually changed, so a
  // polling tracker pays nothing between ACK bursts (vs. a full getsockopt
  // marshalling per poll).
  const TcpInfoData& SharedInfoPage() const;
  // setsockopt(SO_SNDBUF): pins the buffer and disables auto-tuning.
  void SetSndBuf(size_t bytes);
  size_t sndbuf() const { return sndbuf_; }
  size_t SndBufUsed() const { return static_cast<size_t>(write_seq_ - snd_una_); }
  size_t SndBufFree() const;

  // Telemetry handle for this endpoint. Attach sinks (e.g. a
  // GroundTruthTracer, a telemetry::RecordSink) or bind to a run's
  // spine; the stack emits stack-boundary, ACK, and CC-episode records
  // through it, guarded so an unobserved socket pays two compares per probe.
  telemetry::FlowTelemetry& telemetry() { return telemetry_; }
  // Routes this socket's records to `spine` (registry, rings, spine sinks).
  void BindTelemetry(telemetry::TelemetrySpine* spine) { telemetry_.Bind(spine, flow_id_); }

  uint64_t flow_id() const { return flow_id_; }
  uint32_t mss() const { return kDefaultMss; }

  uint64_t total_retransmits() const { return total_retrans_; }
  TimeDelta smoothed_rtt() const { return srtt_; }

  // Test-only: breaks sequence-space ordering and runs the audit so death
  // tests can verify the invariant layer actually fires.
  void TestOnlyCorruptSequenceStateForAudit();  // lint_sim: allow(test-only) -- test hook
  // Test-only: replaces the congestion controller (before the handshake
  // completes), so a test can fix the window or the pacing rate and observe
  // what the socket does with them.
  void TestOnlySetCongestionControl(  // lint_sim: allow(test-only) -- test hook
      std::unique_ptr<CongestionControl> cc) {
    cc_ = std::move(cc);
  }

  // PacketSink (called by the demux).
  void Deliver(Packet pkt) override;

 private:
  // -- connection lifecycle --
  void OnSynRetry();

  // -- sender half --
  void TrySendData();
  void SendDataSegment(uint64_t seq, uint32_t len, bool retransmit);
  void OnAckSegment(const TcpSegmentPayload& seg);
  uint64_t CwndBytes() const;
  void MaybeAutotuneSndbuf();
  void UpdateRtt(TimeDelta sample);
  void ArmRto();
  void CancelRto();
  void OnRtoFire();
  void NotifyWritableIfNeeded();
  void ReactToEcnEcho();

  // -- receiver half --
  void OnDataSegment(const Packet& pkt, const TcpSegmentPayload& seg);
  void SendAck();
  void ScheduleDelayedAck();
  void ScheduleReadableWakeup();
  uint64_t AdvertisedWindow() const;

  // -- shared plumbing --
  void EmitCcEpisode(telemetry::CcEpisode episode) {
    if (telemetry_.recording()) {
      telemetry::TraceRecord r = telemetry::TraceRecord::Range(
          telemetry::RecordKind::kCcStateChange, flow_id_, loop_->now(), snd_una_, snd_nxt_);
      r.size = static_cast<uint32_t>(episode);
      telemetry_.Emit(r);
    }
  }
  // A blank segment in the loop's payload arena, for the caller to fill and
  // hand to EmitSegment.
  std::shared_ptr<TcpSegmentPayload> NewSegment();
  void EmitSegment(std::shared_ptr<TcpSegmentPayload> seg, uint32_t payload_bytes,
                   uint32_t priority_band = 1);
  void BecomeEstablished();
  // Sequence-space audit (compiled out in Release): sequence ordering, the
  // scoreboard's window against snd_una/snd_nxt, receive-buffer occupancy.
  // Runs after every socket entry point; the scoreboard audits itself.
  void AuditSequenceInvariants() const;

  EventLoop* loop_;
  Rng rng_;
  Config config_;
  uint64_t flow_id_;
  PacketSink* tx_;
  Demux* rx_demux_;

  State state_ = State::kClosed;
  SimTime established_time_;
  std::function<void()> established_cb_;  // lint_sim: allow(std-function)
  Timer syn_retry_timer_;

  std::unique_ptr<CongestionControl> cc_;
  telemetry::FlowTelemetry telemetry_;

  // ---- Sender state ----
  uint64_t snd_una_ = 0;   // oldest unacknowledged byte
  uint64_t snd_nxt_ = 0;   // next byte to transmit
  uint64_t write_seq_ = 0;  // end of the send buffer (bytes accepted from app)
  size_t sndbuf_;
  bool sndbuf_autotune_ = true;
  uint64_t peer_rwnd_ = 1 << 30;
  // Every sent, not cumulatively acked segment: SACKed, lost, in flight.
  SendScoreboard board_;

  bool in_recovery_ = false;
  uint64_t recovery_end_ = 0;

  TimeDelta srtt_ = TimeDelta::Zero();
  TimeDelta rttvar_ = TimeDelta::Zero();
  TimeDelta rto_;
  TimeDelta min_rtt_ = TimeDelta::Infinite();
  int rto_backoff_ = 0;
  // Re-armed in place on every transmission and every ACK with data still in
  // flight (tcp_rearm_rto): with Timer::Restart this re-keys the timer's
  // heap entry in place, not a cancel + reschedule churn.
  Timer rto_timer_;

  // Idle detection for RFC 2861 cwnd validation.
  SimTime last_send_activity_;
  bool have_send_activity_ = false;

  // Pacing (used when the CC supplies a rate).
  SimTime next_send_time_;
  Timer pacing_timer_;

  DataRate latest_rate_sample_;
  bool app_limited_now_ = false;

  // ECN sender state.
  bool cwr_pending_ = false;
  SimTime last_ecn_reaction_;

  bool writable_blocked_ = false;
  std::function<void()> writable_cb_;  // lint_sim: allow(std-function)
  Timer writable_notify_timer_;

  // ---- Receiver state ----
  uint64_t rcv_nxt_ = 0;   // next expected in-order byte
  uint64_t read_seq_ = 0;  // bytes the app has consumed
  // Buffered out-of-order bytes beyond rcv_nxt_ as sorted blocks that are
  // disjoint and do not touch, merged on insert: an arrival adds only the
  // bytes no block covers yet. The blocks are the SACK report, so SendAck
  // copies at most kMaxSackBlocks of them instead of merging segments.
  std::vector<SeqRange> out_of_order_;
  uint64_t ooo_bytes_ = 0;  // total size of out_of_order_, each byte once
  int segs_since_ack_ = 0;
  // Start of the most recent out-of-order arrival that added bytes; its
  // block is reported first (RFC 2018).
  uint64_t sack_hint_ = 0;
  // Arrival-rate estimate for DRWA window moderation.
  SimTime rcv_rate_window_start_;
  uint64_t rcv_rate_window_bytes_ = 0;
  double rcv_rate_bytes_per_s_ = 0.0;
  Timer delayed_ack_timer_;
  Timer readable_wakeup_timer_;
  std::function<void()> readable_cb_;  // lint_sim: allow(std-function)
  bool echo_ece_ = false;  // CE seen; echo ECE until CWR

  // ---- Counters for TCP_INFO ----
  uint64_t segs_out_ = 0;
  uint64_t segs_in_ = 0;
  uint64_t total_retrans_ = 0;

  // ---- Shared info page (version-gated snapshot) ----
  // Bumped wherever a GetTcpInfo input changes: each segment out or in, each
  // app write, an RTO (pacing may hold its resend back) and an idle restart.
  // No test observes the last bump: an idle restart runs only inside Write
  // or Deliver, which have bumped already. It stays so the page is right
  // should a restart run from elsewhere.
  uint64_t info_version_ = 0;
  mutable uint64_t shared_page_version_ = ~0ull;
  mutable TcpInfoData shared_page_;
};

struct TcpSocketPair {
  std::unique_ptr<TcpSocket> sender;
  std::unique_ptr<TcpSocket> receiver;
};

// The one way src/ makes a flow's sockets: forks `rng` for the client socket,
// then for the server socket, puts the receiving end in Listen and has the
// sending end Connect. The client sends unless `client_sends` is false.
// Binding telemetry is left to the caller; Connect emits no record, so a
// socket bound afterwards records the same run.
TcpSocketPair ConnectTcpPair(EventLoop* loop, Rng* rng, const TcpSocket::Config& config,
                             uint64_t flow_id, Attachment client, Attachment server,
                             bool client_sends = true);

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_TCP_SOCKET_H_
