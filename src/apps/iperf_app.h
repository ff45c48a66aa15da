// Iperf-style legacy applications: a saturating bulk sender that writes
// through a ByteSink (so it is oblivious to whether ELEMENT is interposed, as
// in Section 5.1), and a greedy reader sink.

#ifndef ELEMENT_SRC_APPS_IPERF_APP_H_
#define ELEMENT_SRC_APPS_IPERF_APP_H_

#include <cstddef>

#include "src/element/byte_sink.h"
#include "src/element/element_socket.h"
#include "src/evloop/event_loop.h"
#include "src/tcpsim/tcp_socket.h"

namespace element {

// Writes 128 KiB chunks as fast as the sink accepts — "continuously sends
// data to measure TCP performance, which is common in legacy TCP
// applications".
class IperfApp {
 public:
  // The app reads no clock; the loop stays a parameter because
  // perfbench/workloads.cc constructs IperfApp(&loop, sink).
  IperfApp(EventLoop*, ByteSink* sink);

  void Start();

 private:
  void Pump();

  ByteSink* sink_;
  bool started_ = false;
};

// Reads everything as soon as the socket wakes the app. Optionally reads via
// an ElementSocket so the receiver-side estimator sees the read stream.
class SinkApp {
 public:
  explicit SinkApp(TcpSocket* socket);
  explicit SinkApp(ElementSocket* em);

  void Start();

 private:
  void Drain();

  TcpSocket* socket_;
  ElementSocket* em_ = nullptr;
};

}  // namespace element

#endif  // ELEMENT_SRC_APPS_IPERF_APP_H_
