#include "src/element/element_socket.h"

#include <utility>

namespace element {

ElementSocket::ElementSocket(EventLoop* loop, TcpSocket* socket, const Options& options)
    : loop_(loop),
      socket_(socket),
      retry_timer_(loop, [this] { OnGateRetry(); }) {
  tracker_ = std::make_unique<TcpInfoTracker>(loop, socket, options.tracker_period);
  tracker_->set_sender_estimator(&sender_est_);
  tracker_->set_receiver_estimator(&receiver_est_);
  tracker_->set_path_estimator(&path_est_);
  tracker_->Start();

  // Estimates ride the same spine as the socket's stack records, so a
  // kDelaySample (flagged kFlagEstimate) can be lined up against the
  // ground-truth records of the same flow in one trace.
  sender_est_.BindTelemetry(socket->telemetry().spine(), socket->flow_id());
  receiver_est_.BindTelemetry(socket->telemetry().spine(), socket->flow_id());

  if (options.enable_latency_minimization) {
    minimizer_ = std::make_unique<LatencyMinimizer>(loop, socket, options.minimizer,
                                                    options.is_wireless);
    sender_est_.telemetry().AttachSink(this);
    minimizer_->Start();
  }

  socket_->SetWritableCallback([this] {
    if (!ready_cb_) {
      return;
    }
    if (MaySendNow()) {
      ready_cb_();
    } else if (minimizer_) {
      // Buffer space opened while the pacing gate is closed: keep a retry
      // armed, otherwise no event would ever wake the application again.
      ArmGateRetry();
    }
  });
}

ElementSocket::~ElementSocket() { socket_->SetWritableCallback(nullptr); }

RetInfo ElementSocket::MakeRetInfo(long size, double buf_delay_s) const {
  RetInfo info;
  info.size = size;
  info.buf_delay_s = buf_delay_s;
  info.throughput_mbps = tracker_->throughput().ToMbps();
  info.rtt_s = socket_->smoothed_rtt().ToSeconds();
  info.cwnd = static_cast<int>(tracker_->latest_info().tcpi_snd_cwnd);
  return info;
}

bool ElementSocket::MaySendNow() const {
  if (minimizer_ && !minimizer_->MaySendNow()) {
    return false;
  }
  return socket_->SndBufFree() > 0;
}

void ElementSocket::SetReadyToSendCallback(std::function<void()> cb) {
  ready_cb_ = std::move(cb);
}

void ElementSocket::ArmGateRetry() {
  if (retry_timer_.pending() || !minimizer_) {
    return;
  }
  retry_timer_.RestartAfter(minimizer_->NextRetryDelay());
}

void ElementSocket::OnGateRetry() {
  if (!ready_cb_) {
    return;
  }
  if (MaySendNow() || minimizer_->MaySendNow()) {
    ready_cb_();
  } else {
    ArmGateRetry();
  }
}

RetInfo ElementSocket::Send(size_t n) {
  if (minimizer_ && !minimizer_->MaySendNow()) {
    ArmGateRetry();
    return MakeRetInfo(0, send_buffer_delay_s());
  }
  if (minimizer_) {
    minimizer_->OnSendAllowed();
    // Application-level *packet* pacing (§4.4): each admitted write is one
    // segment's worth, so the S_target gate is re-evaluated at packet
    // granularity. A large legacy write would otherwise blow through the
    // gate in one call and defeat the pacing entirely.
    n = std::min<size_t>(n, socket_->mss());
  }
  size_t accepted = socket_->Write(n);
  if (accepted > 0) {
    sender_est_.OnAppSend(socket_->app_bytes_written(), loop_->now());
  }
  // After the write, Algorithm 3 sleeps while the buffered-but-unsent amount
  // exceeds S_target; in event-driven form that is the retry timer.
  if (minimizer_ && !minimizer_->MaySendNow()) {
    ArmGateRetry();
  }
  return MakeRetInfo(static_cast<long>(accepted), send_buffer_delay_s());
}

RetInfo ElementSocket::Read(size_t max) {
  size_t n = socket_->Read(max);
  if (n > 0) {
    receiver_est_.OnAppReceive(socket_->app_bytes_read(), loop_->now());
  }
  return MakeRetInfo(static_cast<long>(n), recv_buffer_delay_s());
}

}  // namespace element
