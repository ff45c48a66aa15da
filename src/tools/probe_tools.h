// Simulated TCP-based delay-measurement tools from Table 1. tcpping, paping,
// and hping3 all time a TCP SYN / SYN-ACK exchange: small control packets
// that traverse the network path (sharing its queues) but never enter the
// bulk flow's socket buffers — which is exactly why they cannot see endhost
// system delay. echoping instead times whole application-layer downloads.

#ifndef ELEMENT_SRC_TOOLS_PROBE_TOOLS_H_
#define ELEMENT_SRC_TOOLS_PROBE_TOOLS_H_

#include <memory>
#include <string>

#include "src/common/stats.h"
#include "src/evloop/event_loop.h"
#include "src/netsim/pipe.h"
#include "src/tcpsim/tcp_socket.h"

namespace element {

// Echoes 60-byte SYN-ACKs for probe flows; registered at the server-side
// demux (the moral equivalent of the peer's listening TCP port).
class SynResponder : public PacketSink {
 public:
  SynResponder(EventLoop* loop, PacketSink* reply_pipe)
      : loop_(loop), reply_pipe_(reply_pipe) {}

  void Deliver(Packet pkt) override;

 private:
  EventLoop* loop_;
  PacketSink* reply_pipe_;
};

// Generic SYN-probe RTT tool; tcpping/paping/hping3 differ only in probe
// cadence and packet size.
class SynProbeTool : public PacketSink {
 public:
  struct Profile {
    std::string name;
    TimeDelta interval;
    uint32_t probe_size_bytes;
  };
  static Profile TcpPing() { return {"tcpping", TimeDelta::FromSecondsInt(1), 60}; }
  static Profile Paping() { return {"paping", TimeDelta::FromMillis(1000), 64}; }
  static Profile Hping3() { return {"hping3", TimeDelta::FromMillis(1000), 40}; }

  SynProbeTool(EventLoop* loop, DuplexPath* path, Profile profile);
  ~SynProbeTool() override;

  void Start();
  void Stop();

  // One RTT sample per answered probe, seconds.
  const SampleSet& rtt_samples() const { return rtt_; }

  void Deliver(Packet pkt) override;  // SYN-ACK reception

 private:
  void SendProbe();

  EventLoop* loop_;
  DuplexPath* path_;
  Profile profile_;
  uint64_t flow_id_;
  std::unique_ptr<SynResponder> responder_;
  PeriodicTimer timer_;
  SimTime probe_sent_;
  bool awaiting_reply_ = false;
  SampleSet rtt_;
};

// echoping: repeatedly requests a document over the bulk path and times the
// complete application-layer transfer. The server pushes the document through
// its own TCP stack, so (unlike the SYN probes) the measurement *includes*
// endhost buffering — but only as one undecomposed number.
class EchoPing {
 public:
  // Each 100-byte request fetches a 256 KiB document; the next request
  // leaves 200 ms after the document is complete.
  EchoPing(EventLoop* loop, TcpSocket* client, TcpSocket* server);

  void Start();
  // Total request->document-complete time per exchange, seconds.
  const SampleSet& transfer_times() const { return times_; }

 private:
  void SendRequest();
  void OnServerReadable();
  void OnClientReadable();
  void PumpServerResponse();

  EventLoop* loop_;
  TcpSocket* client_;
  TcpSocket* server_;

  SimTime request_time_;
  uint64_t expected_read_;
  size_t response_left_ = 0;
  bool in_flight_ = false;
  Timer pause_timer_;
  SampleSet times_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TOOLS_PROBE_TOOLS_H_
