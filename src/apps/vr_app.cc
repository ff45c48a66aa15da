#include "src/apps/vr_app.h"

#include <algorithm>

namespace element {
namespace {

constexpr double kFps = 60.0;
constexpr TimeDelta kFrameDeadline = TimeDelta::FromMillis(200);
constexpr int kBlindLevel = 3;  // a non-adaptive server streams the top level
// Encoder output buffer: even a non-adaptive server cannot queue frames
// without bound; the oldest pending frames are capped at this many.
constexpr size_t kEncoderBufferFrames = 3;
// Adaptation (ELEMENT mode only). Thresholds sit above the latency
// minimizer's own ~25 ms equilibrium so steady-state pacing is not read as
// congestion.
constexpr TimeDelta kSenderDelayDropThreshold = TimeDelta::FromMillis(60);
constexpr TimeDelta kSenderDelayDownshiftThreshold = TimeDelta::FromMillis(35);
constexpr int kUpshiftAfterGoodFrames = 45;
constexpr TimeDelta kFailedUpshiftBackoff = TimeDelta::FromSecondsInt(30);
// Head-control channel.
constexpr TimeDelta kControlInterval = TimeDelta::FromMillis(50);
constexpr uint32_t kControlBytes = 32;

}  // namespace

VrServer::VrServer(EventLoop* loop, TcpSocket* socket, ElementSocket* em)
    : loop_(loop),
      socket_(socket),
      em_(em),
      frame_timer_(loop, TimeDelta::FromSeconds(1.0 / kFps), [this] { OnFrameTick(); }),
      // An adaptive (ELEMENT-driven) server starts conservatively and climbs;
      // a blind server streams the top level from the first frame.
      level_(em != nullptr ? 1 : kBlindLevel) {}

void VrServer::Start() {
  auto pump = [this] { PumpWrites(); };
  if (em_ != nullptr) {
    em_->SetReadyToSendCallback(pump);
  } else {
    socket_->SetWritableCallback(pump);
  }
  socket_->SetReadableCallback([this] { DrainControl(); });
  frame_timer_.Start();
}

void VrServer::DrainControl() {
  size_t n;
  while ((n = socket_->Read(4096)) > 0) {
    control_messages_ += n / kControlBytes;
  }
}

void VrServer::OnFrameTick() {
  if (!socket_->established()) {
    return;
  }
  VrFrameRecord rec;
  rec.id = frames_.size();
  rec.generated = loop_->now();

  if (em_ != nullptr) {
    ++frames_since_upshift_;
    // ELEMENT-driven adaptation: the server checks the sender-side system
    // delay before admitting a frame to the encoder buffer.
    TimeDelta send_delay = TimeDelta::FromSeconds(em_->send_buffer_delay_s());
    auto remember_failed_upshift = [&] {
      // Only the level we just climbed to can be declared "failed": during a
      // downshift cascade the measured delay is stale backlog from the
      // overloaded level, not evidence against the lower levels.
      if (level_ == last_upshift_target_ &&
          frames_since_upshift_ < 2 * static_cast<uint64_t>(kUpshiftAfterGoodFrames)) {
        failed_level_ = level_;
        failed_level_retry_after_ = loop_->now() + kFailedUpshiftBackoff;
      }
    };
    if (send_delay > kSenderDelayDropThreshold ||
        write_queue_.size() >= kEncoderBufferFrames) {
      // Stack (or app queue) is badly backed up: discard this frame entirely
      // and downshift.
      rec.dropped = true;
      rec.level = level_;
      remember_failed_upshift();
      level_ = std::max(level_ - 1, 0);
      good_frames_streak_ = 0;
      frames_.push_back(rec);
      return;
    }
    if (send_delay > kSenderDelayDownshiftThreshold) {
      remember_failed_upshift();
      level_ = std::max(level_ - 1, 0);
      good_frames_streak_ = 0;
    } else {
      ++good_frames_streak_;
      int next = level_ + 1;
      bool next_allowed = next < static_cast<int>(kResolutionLadder.size()) &&
                          (next < failed_level_ || loop_->now() > failed_level_retry_after_);
      if (good_frames_streak_ >= kUpshiftAfterGoodFrames && next_allowed) {
        level_ = next;
        last_upshift_target_ = next;
        good_frames_streak_ = 0;
        frames_since_upshift_ = 0;
      }
    }
  }

  if (write_queue_.size() >= kEncoderBufferFrames) {
    // Encoder buffer full: this frame is skipped (any server does this; only
    // the ELEMENT-driven one above also *adapts* before it gets here).
    rec.dropped = true;
    rec.level = level_;
    frames_.push_back(rec);
    return;
  }
  rec.level = level_;
  rec.bytes = kResolutionLadder[static_cast<size_t>(level_)];
  frames_.push_back(rec);
  write_queue_.emplace_back(rec.id, rec.bytes);
  PumpWrites();
}

size_t VrServer::WriteBytes(size_t n) {
  if (em_ != nullptr) {
    RetInfo info = em_->Send(n);
    return info.size > 0 ? static_cast<size_t>(info.size) : 0;
  }
  return socket_->Write(n);
}

void VrServer::PumpWrites() {
  while (!write_queue_.empty()) {
    auto& [frame_id, remaining] = write_queue_.front();
    // em_send admits at most one segment per call (packet pacing), so keep
    // writing until the frame is fully queued or the socket/gate pushes back.
    while (remaining > 0) {
      size_t w = WriteBytes(remaining);
      if (w == 0) {
        return;  // the writable/ready callback resumes us
      }
      remaining -= w;
    }
    VrFrameRecord& rec = frames_[frame_id];
    rec.fully_queued = true;
    rec.end_seq = socket_->app_bytes_written();
    write_queue_.pop_front();
  }
}

VrClient::VrClient(EventLoop* loop, TcpSocket* socket, VrServer* server)
    : loop_(loop),
      socket_(socket),
      server_(server),
      control_timer_(loop, kControlInterval, [this] { SendHeadControl(); }) {}

void VrClient::Start() {
  socket_->SetReadableCallback([this] { OnReadable(); });
  control_timer_.Start();
}

void VrClient::SendHeadControl() {
  if (socket_->established()) {
    socket_->Write(kControlBytes);  // viewpoint x/y + angular speed
  }
}

void VrClient::OnReadable() {
  while (socket_->Read(64 * 1024) > 0) {
  }
  uint64_t read_pos = socket_->app_bytes_read();
  auto& frames = server_->mutable_frames();
  while (next_frame_index_ < frames.size()) {
    VrFrameRecord& rec = frames[next_frame_index_];
    if (rec.dropped) {
      ++next_frame_index_;
      continue;
    }
    if (!rec.fully_queued || rec.end_seq > read_pos) {
      break;
    }
    rec.completed = true;
    rec.completed_at = loop_->now();
    double delay = (loop_->now() - rec.generated).ToSeconds();
    frame_delays_.Add(delay);
    ++frames_received_;
    if (delay > kFrameDeadline.ToSeconds()) {
      ++deadline_misses_;
    }
    ++next_frame_index_;
  }
}

double VrClient::DeadlineMissFraction() const {
  if (frames_received_ == 0) {
    return 0.0;
  }
  return static_cast<double>(deadline_misses_) / static_cast<double>(frames_received_);
}

}  // namespace element
