#include "src/element/tcp_info_tracker.h"

namespace element {

TcpInfoTracker::TcpInfoTracker(EventLoop* loop, TcpSocket* socket, TimeDelta period)
    : loop_(loop), socket_(socket), timer_(loop, period, [this] { PollNow(); }) {}

void TcpInfoTracker::PollNow() {
  latest_ = socket_->SharedInfoPage();
  ++samples_;
  SimTime now = loop_->now();

  acked_history_.push_back({now, latest_.tcpi_bytes_acked});
  while (acked_history_.size() > 2 && now - acked_history_.front().t > kThroughputWindow) {
    acked_history_.pop_front();
  }
  const AckedPoint& oldest = acked_history_.front();
  throughput_ = RateOver(static_cast<int64_t>(latest_.tcpi_bytes_acked - oldest.bytes_acked),
                         now - oldest.t);

  if (sender_est_ != nullptr) {
    sender_est_->OnTcpInfoSample(latest_, now);
  }
  if (receiver_est_ != nullptr) {
    receiver_est_->OnTcpInfoSample(latest_, now);
  }
  if (path_est_ != nullptr) {
    path_est_->OnTcpInfoSample(latest_);
  }
}

}  // namespace element
