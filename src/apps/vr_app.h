// 360-degree VR streaming application (Section 5.2): a server encodes frames
// at a resolution ladder and streams them over TCP; the headset client reads
// frames and returns head-movement control messages on the same (full-duplex)
// connection. With ELEMENT attached, the server inspects the sender-side
// system delay / cwnd / RTT before each frame and adapts — dropping frames
// and shifting resolution — so frames meet the VR-sickness deadline
// (100 ms threshold + base latency, 200 ms total in the paper).

#ifndef ELEMENT_SRC_APPS_VR_APP_H_
#define ELEMENT_SRC_APPS_VR_APP_H_

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/stats.h"
#include "src/element/element_socket.h"
#include "src/evloop/event_loop.h"
#include "src/tcpsim/tcp_socket.h"

namespace element {

struct VrFrameRecord {
  uint64_t id = 0;
  SimTime generated;
  int level = 0;
  size_t bytes = 0;
  bool dropped = false;       // skipped by the adaptation
  uint64_t end_seq = 0;       // stream position after the frame (valid if !dropped)
  bool fully_queued = false;  // all bytes accepted by the socket
  bool completed = false;
  SimTime completed_at;
};

// Streams 60 fps frames; each must arrive within 200 ms (VrClient counts the
// misses).
class VrServer {
 public:
  // Encoded frame sizes per resolution level (bytes). The top level at 60 fps
  // is ~58 Mbps — deliberately above typical link capacity.
  static constexpr std::array<size_t, 4> kResolutionLadder = {30000, 60000, 90000, 120000};

  // `em` may be null: then the server streams blindly at the top level
  // through the raw socket (the "TCP Cubic alone" configuration).
  VrServer(EventLoop* loop, TcpSocket* socket, ElementSocket* em);

  void Start();
  void Stop();

  const std::vector<VrFrameRecord>& frames() const { return frames_; }
  std::vector<VrFrameRecord>& mutable_frames() { return frames_; }
  uint64_t control_messages_received() const { return control_messages_; }
  int current_level() const { return level_; }  // lint_sim: allow(test-only) -- observer

 private:
  void OnFrameTick();
  void PumpWrites();
  size_t WriteBytes(size_t n);
  void DrainControl();

  EventLoop* loop_;
  TcpSocket* socket_;
  ElementSocket* em_;
  PeriodicTimer frame_timer_;

  std::vector<VrFrameRecord> frames_;
  std::deque<std::pair<uint64_t, size_t>> write_queue_;  // frame id, bytes left
  int level_;
  int good_frames_streak_ = 0;
  // Upshift memory: a level that caused delay to rise is not retried until
  // the backoff expires (prevents oscillating into overload).
  int failed_level_ = 1 << 30;
  int last_upshift_target_ = -1;
  SimTime failed_level_retry_after_;
  uint64_t frames_since_upshift_ = 1 << 20;
  uint64_t control_messages_ = 0;
  bool running_ = false;
};

class VrClient {
 public:
  VrClient(EventLoop* loop, TcpSocket* socket, VrServer* server);

  void Start();
  void Stop();

  // Delay from frame generation to full reception (seconds), delivered frames.
  const SampleSet& frame_delays() const { return frame_delays_; }
  double DeadlineMissFraction() const;
  uint64_t frames_received() const { return frames_received_; }

 private:
  void OnReadable();
  void SendHeadControl();

  EventLoop* loop_;
  TcpSocket* socket_;
  VrServer* server_;
  PeriodicTimer control_timer_;

  SampleSet frame_delays_;
  uint64_t deadline_misses_ = 0;
  uint64_t frames_received_ = 0;
  size_t next_frame_index_ = 0;
};

}  // namespace element

#endif  // ELEMENT_SRC_APPS_VR_APP_H_
