// SVC (Scalable Video Coding) streaming — the paper's §4.4 use case: a sender
// holds layered frames in its application buffer and, *right before* handing
// data to the TCP layer, drops enhancement layers when ELEMENT's measured
// send-buffer delay says the stack is backing up. The base layer is never
// dropped; quality degrades before latency does.

#ifndef ELEMENT_SRC_APPS_SVC_APP_H_
#define ELEMENT_SRC_APPS_SVC_APP_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/stats.h"
#include "src/element/element_socket.h"
#include "src/evloop/event_loop.h"
#include "src/tcpsim/tcp_socket.h"

namespace element {

struct SvcLayerStats {
  uint64_t enqueued = 0;  // admitted to the app buffer
  uint64_t sent = 0;      // actually written to TCP
  uint64_t shed = 0;      // dropped at the TCP boundary
};

// A 30 fps stream of a ~2 Mbps base layer and three enhancement layers
// (~+2, +4, +8 Mbps). Layer k (1-based) is shed when the send-buffer delay
// exceeds 120 ms / k: the highest layers go first.
class SvcStreamer {
 public:
  SvcStreamer(EventLoop* loop, ElementSocket* em);

  void Start();
  void Stop();

  // Index 0 = base layer; 1..N = enhancement layers.
  const std::vector<SvcLayerStats>& layer_stats() const { return stats_; }
  // Delay from frame generation to the *base layer* fully written to TCP plus
  // estimated drain — a sender-side latency proxy per frame.
  const SampleSet& base_layer_send_delays() const { return base_delays_; }
  uint64_t frames_generated() const { return frames_; }

 private:
  struct Chunk {
    uint64_t frame;
    int layer;  // 0 = base
    size_t remaining;
    SimTime generated;
  };

  void OnFrameTick();
  void Pump();

  EventLoop* loop_;
  ElementSocket* em_;
  PeriodicTimer frame_timer_;

  std::deque<Chunk> queue_;
  std::vector<SvcLayerStats> stats_;
  SampleSet base_delays_;
  uint64_t frames_ = 0;
  bool running_ = false;
};

}  // namespace element

#endif  // ELEMENT_SRC_APPS_SVC_APP_H_
