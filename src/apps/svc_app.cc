#include "src/apps/svc_app.h"

#include <array>

namespace element {
namespace {

constexpr double kFps = 30.0;
constexpr size_t kBaseLayerBytes = 8400;  // ~2 Mbps at 30 fps
// Enhancement layers, cumulative extras (~+2, +4, +8 Mbps at 30 fps).
constexpr std::array<size_t, 3> kEnhancementBytes = {8400, 16800, 33600};
// Layer k (1-based) is shed when the send-buffer delay exceeds
// kDelayBudget / k: the highest layers go first.
constexpr TimeDelta kDelayBudget = TimeDelta::FromMillis(120);

}  // namespace

SvcStreamer::SvcStreamer(EventLoop* loop, ElementSocket* em)
    : loop_(loop),
      em_(em),
      frame_timer_(loop, TimeDelta::FromSeconds(1.0 / kFps), [this] { OnFrameTick(); }) {
  stats_.resize(kEnhancementBytes.size() + 1);
}

void SvcStreamer::Start() {
  running_ = true;
  em_->SetReadyToSendCallback([this] { Pump(); });
  frame_timer_.Start();
}

void SvcStreamer::Stop() {
  running_ = false;
  frame_timer_.Stop();
}

void SvcStreamer::OnFrameTick() {
  if (!running_ || !em_->socket()->established()) {
    return;
  }
  ++frames_;
  // All layers enter the application buffer; the shedding decision happens at
  // the TCP boundary, with fresh delay information (§4.4).
  Chunk base{frames_, 0, kBaseLayerBytes, loop_->now()};
  queue_.push_back(base);
  ++stats_[0].enqueued;
  for (size_t k = 0; k < kEnhancementBytes.size(); ++k) {
    Chunk enh{frames_, static_cast<int>(k + 1), kEnhancementBytes[k], loop_->now()};
    queue_.push_back(enh);
    ++stats_[k + 1].enqueued;
  }
  Pump();
}

void SvcStreamer::Pump() {
  while (!queue_.empty()) {
    Chunk& chunk = queue_.front();
    if (chunk.layer > 0) {
      // Enhancement layers are shed when the measured send-buffer delay
      // exceeds their (tighter, for higher layers) share of the budget, or
      // when they have already waited out most of the budget in the app queue.
      TimeDelta budget = kDelayBudget * (1.0 / chunk.layer);
      TimeDelta send_delay = TimeDelta::FromSeconds(em_->send_buffer_delay_s());
      TimeDelta waited = loop_->now() - chunk.generated;
      if (send_delay > budget || waited > kDelayBudget) {
        ++stats_[static_cast<size_t>(chunk.layer)].shed;
        queue_.pop_front();
        continue;
      }
    }
    RetInfo info = em_->Send(chunk.remaining);
    if (info.size <= 0) {
      return;  // gated or buffer full; the ready callback resumes us
    }
    chunk.remaining -= static_cast<size_t>(info.size);
    if (chunk.remaining == 0) {
      ++stats_[static_cast<size_t>(chunk.layer)].sent;
      if (chunk.layer == 0) {
        // Sender-side latency proxy: app-queue wait + current buffer delay.
        base_delays_.Add((loop_->now() - chunk.generated).ToSeconds() +
                         em_->send_buffer_delay_s());
      }
      queue_.pop_front();
    }
  }
}

}  // namespace element
