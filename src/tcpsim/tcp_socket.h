// Packet-level TCP endpoint with a BSD-socket-shaped user API.
//
// One TcpSocket is one endpoint of a connection (both sender and receiver
// halves are present; the experiments mostly push data one way). The model
// covers what the paper's observations depend on:
//   - byte-accurate send buffer whose occupancy *is* the sender system delay,
//   - Linux-style ratcheting send-buffer auto-tuning (sndbuf ~ 2x cwnd),
//   - pluggable congestion control (Reno/Cubic/Vegas/BBR) with pacing,
//   - loss detection by 3 duplicate ACKs (NewReno-ish) and RTO (RFC 6298),
//   - receiver out-of-order queue (where loss-induced receiver delay forms),
//   - delayed ACKs, flow control, optional ECN,
//   - getsockopt(TCP_INFO) mirror for the ELEMENT estimators.

#ifndef ELEMENT_SRC_TCPSIM_TCP_SOCKET_H_
#define ELEMENT_SRC_TCPSIM_TCP_SOCKET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/evloop/event_loop.h"
#include "src/netsim/pipe.h"
#include "src/tcpsim/congestion_control.h"
#include "src/tcpsim/tcp_info.h"
#include "src/telemetry/spine.h"
#include "src/tcpsim/tcp_segment.h"

namespace element {

class TcpSocket : public PacketSink {
 public:
  struct Config {
    uint32_t mss = kDefaultMss;
    std::string congestion_control = "cubic";
    bool ecn = false;

    // Send buffer, Linux tcp_wmem semantics: starts small, auto-tuning
    // ratchets it up toward ~2x the congestion window, capped at max.
    size_t sndbuf_bytes = 64 * 1024;
    bool sndbuf_autotune = true;
    size_t sndbuf_max_bytes = 4 * 1024 * 1024;

    size_t rcvbuf_bytes = 8 * 1024 * 1024;

    // DRWA-style receiver-side window moderation (the paper's related-work
    // baseline [37]): the advertised window is capped near
    // arrival_rate * drwa_target_delay, bounding the sender's inflight (and,
    // through the 2x-cwnd sndbuf ratchet, its buffer) from the receiver.
    bool drwa_rcv_window_moderation = false;
    TimeDelta drwa_target_delay = TimeDelta::FromMillis(150);

    // Nagle / autocorking: hold back a sub-MSS tail while earlier data is
    // unacknowledged, so bulk transfers emit full segments (as Linux does).
    bool nagle = true;

    TimeDelta min_rto = TimeDelta::FromMillis(200);
    TimeDelta initial_rto = TimeDelta::FromSecondsInt(1);
    TimeDelta delayed_ack_timeout = TimeDelta::FromMillis(40);

    // Mean process-scheduling latency before the app's readable callback
    // runs; models the small baseline receiver-side delay.
    TimeDelta app_wakeup_latency_mean = TimeDelta::FromMicros(300);
  };

  enum class State { kClosed, kListen, kSynSent, kSynReceived, kEstablished };
  // Teardown is tracked by flags rather than the full TCP state machine:
  // Close() half-closes the write side; the read side stays usable until the
  // peer's FIN arrives (signalled via the EOF callback).

  TcpSocket(EventLoop* loop, Rng rng, Config config, uint64_t flow_id, PacketSink* tx,
            Demux* rx_demux);
  ~TcpSocket() override;

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // ---- Connection lifecycle ----
  void Connect();  // active open (client)
  void Listen();   // passive open (server)
  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  void SetEstablishedCallback(std::function<void()> cb) {  // lint_sim: allow(std-function)
    established_cb_ = std::move(cb);
  }
  SimTime established_time() const { return established_time_; }

  // ---- Teardown ----
  // Half-closes the write side: no further writes are accepted; a FIN is sent
  // once all buffered data has been transmitted (and is retransmitted until
  // acknowledged).
  void Close();
  bool close_requested() const { return close_requested_; }
  bool fin_acked() const { return fin_acked_; }
  // True once the peer's FIN arrived and all prior data was delivered.
  bool peer_closed() const { return peer_fin_received_; }
  void SetEofCallback(std::function<void()> cb) {  // lint_sim: allow(std-function)
    eof_cb_ = std::move(cb);
  }

  // ---- Application I/O (non-blocking) ----
  // Accepts up to `n` bytes into the send buffer; returns bytes accepted.
  // Returns 0 after Close().
  size_t Write(size_t n);
  // Consumes up to `max` bytes from the receive buffer; returns bytes read.
  size_t Read(size_t max);
  size_t ReadableBytes() const {
    // The peer's FIN consumes a phantom sequence number that is not app data.
    uint64_t stream_end = rcv_nxt_ - (peer_fin_received_ ? 1 : 0);
    return static_cast<size_t>(stream_end - read_seq_);
  }
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
  // Occupancy is clamped at zero: once the FIN's phantom byte is acked,
  // snd_una_ sits one past write_seq_.
  size_t SndBufUsed() const {
    return static_cast<size_t>(write_seq_ > snd_una_ ? write_seq_ - snd_una_ : 0);
  }
  size_t SndBufFree() const;

  // Telemetry handle for this endpoint. Attach sinks (e.g. a
  // GroundTruthTracer, a telemetry::RecordSink) or bind to a run's
  // spine; the stack emits stack-boundary, ACK, and CC-episode records
  // through it, guarded so an unobserved socket pays two compares per probe.
  telemetry::FlowTelemetry& telemetry() { return telemetry_; }
  // Routes this socket's records to `spine` (registry, rings, spine sinks).
  void BindTelemetry(telemetry::TelemetrySpine* spine) { telemetry_.Bind(spine, flow_id_); }

  CongestionControl& congestion_control() { return *cc_; }
  uint64_t flow_id() const { return flow_id_; }
  uint32_t mss() const { return config_.mss; }

  uint64_t total_retransmits() const { return total_retrans_; }
  TimeDelta smoothed_rtt() const { return srtt_; }
  TimeDelta min_rtt() const { return min_rtt_; }

  // Test-only: breaks sequence-space ordering and runs the audit so death
  // tests can verify the invariant layer actually fires.
  void TestOnlyCorruptSequenceStateForAudit();

  // PacketSink (called by the demux).
  void Deliver(Packet pkt) override;

 private:
  struct SegMeta {
    uint32_t len = 0;
    SimTime first_tx;
    SimTime last_tx;
    bool retransmitted = false;
    bool sacked = false;
    bool lost = false;
    // Delivery-rate sampling state captured at (first) transmit.
    uint64_t delivered_at_send = 0;
    SimTime delivered_time_at_send;
    bool app_limited = false;
  };

  // -- connection lifecycle --
  void OnSynRetry();

  // -- sender half --
  void TrySendData();
  void SendDataSegment(uint64_t seq, uint32_t len, bool retransmit);
  void OnAckSegment(const TcpSegmentPayload& seg);
  // SACK scoreboard: marks sacked ranges, detects losses (3*MSS FACK rule),
  // and enters recovery once per window. Returns the freshest RTT sample.
  void ProcessSackBlocks(const std::vector<SackBlock>& blocks, TimeDelta* rtt_sample);
  void MarkLosses();
  bool RetransmitOneLost();  // lowest-sequence lost segment, if window allows
  uint64_t CwndBytes() const;
  uint64_t EffectiveInFlight() const;
  void MaybeAutotuneSndbuf();
  void UpdateRtt(TimeDelta sample);
  void ArmRto();
  void CancelRto();
  void OnRtoFire();
  void NotifyWritableIfNeeded();
  void ReactToEcnEcho();
  void MaybeSendFin();
  void SendFinSegment();

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
      telemetry_.EmitAlways(r);
    }
  }
  void EmitSegment(TcpSegmentPayload seg, uint32_t payload_bytes, uint32_t priority_band = 1);
  void BecomeEstablished();
  // Sequence-space conservation audit (compiled out in Release): sequence
  // ordering, SACK-scoreboard bookkeeping vs. the retransmit queue, send- and
  // receive-buffer occupancy. Runs after every socket entry point.
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
  bool sndbuf_autotune_;
  uint64_t peer_rwnd_ = 1 << 30;
  std::map<uint64_t, SegMeta> outstanding_;  // keyed by first byte seq

  bool in_recovery_ = false;
  uint64_t recovery_end_ = 0;
  uint64_t sacked_bytes_ = 0;
  uint64_t lost_bytes_ = 0;
  uint64_t highest_sacked_ = 0;

  TimeDelta srtt_ = TimeDelta::Zero();
  TimeDelta rttvar_ = TimeDelta::Zero();
  TimeDelta rto_;
  TimeDelta min_rtt_ = TimeDelta::Infinite();
  int rto_backoff_ = 0;
  // Re-armed in place on every transmission and every ACK with data still in
  // flight (tcp_rearm_rto): with Timer::Restart this is a heap-slot update,
  // not a cancel + reschedule churn.
  Timer rto_timer_;

  // Idle detection for RFC 2861 cwnd validation.
  SimTime last_send_activity_;
  bool have_send_activity_ = false;

  // Pacing (used when the CC supplies a rate).
  SimTime next_send_time_;
  Timer pacing_timer_;

  // Delivery-rate sampling (tcp rate_sample analogue).
  uint64_t delivered_bytes_ = 0;
  SimTime delivered_time_;
  DataRate latest_rate_sample_;
  bool app_limited_now_ = false;

  // ECN sender state.
  bool cwr_pending_ = false;
  SimTime last_ecn_reaction_;

  bool writable_blocked_ = false;
  std::function<void()> writable_cb_;  // lint_sim: allow(std-function)
  Timer writable_notify_timer_;

  // ---- Teardown state ----
  bool close_requested_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  uint64_t fin_seq_ = 0;  // sequence of the FIN's phantom byte
  Timer fin_retry_timer_;
  bool peer_fin_received_ = false;
  bool pending_peer_fin_ = false;
  uint64_t peer_fin_seq_ = 0;
  std::function<void()> eof_cb_;  // lint_sim: allow(std-function)

  // ---- Receiver state ----
  uint64_t rcv_nxt_ = 0;   // next expected in-order byte
  uint64_t read_seq_ = 0;  // bytes the app has consumed
  std::map<uint64_t, uint32_t> out_of_order_;  // seq -> len
  uint64_t ooo_bytes_ = 0;
  int segs_since_ack_ = 0;
  uint64_t sack_hint_ = 0;  // most recent out-of-order arrival (RFC 2018 first block)
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
  uint64_t info_version_ = 0;
  mutable uint64_t shared_page_version_ = ~0ull;
  mutable TcpInfoData shared_page_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_TCP_SOCKET_H_
