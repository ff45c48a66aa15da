// Testbed: builds the sender/WAN-emulator/receiver topology of the paper's
// experiments — a duplex path with a configurable bottleneck qdisc and link
// model — and wires connected TCP socket pairs onto it. It is the one place
// that builds a single path; topo::Network builds multi-hop ones.

#ifndef ELEMENT_SRC_TCPSIM_TESTBED_H_
#define ELEMENT_SRC_TCPSIM_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/evloop/event_loop.h"
#include "src/netsim/link_model.h"
#include "src/netsim/pipe.h"
#include "src/netsim/qdisc_factory.h"
#include "src/tcpsim/tcp_socket.h"
#include "src/telemetry/spine.h"

namespace element {

enum class LinkType { kFixed, kCable, kWifi, kLte };

struct PathConfig {
  // Bottleneck (data direction) configuration.
  QdiscType qdisc = QdiscType::kPfifoFast;
  size_t queue_limit_packets = 100;  // ~2x BDP for the default profile
  bool ecn = false;

  LinkType link = LinkType::kFixed;
  DataRate rate = DataRate::Mbps(10);
  TimeDelta one_way_delay = TimeDelta::FromMillis(25);
  double loss_probability = 0.0;  // i.i.d. forward wire loss (kFixed only)
  // A time-varying forward rate (kFixed only): Fig. 8's steps, or a replayed
  // trace through ScheduleFromTrace (src/netsim/trace_link.h). When set, it
  // replaces `rate`; the reverse link keeps `reverse_rate`.
  std::vector<ScheduledLinkModel::Step> steps;

  // Reverse (ACK) direction: a pfifo_fast pipe with the forward one-way
  // delay; a generous default rate so ACKs are not the bottleneck unless a
  // test wants them to be.
  DataRate reverse_rate = DataRate::Gbps(1);
};

// Named production-network profiles from the paper (Sections 2.2 and 4.3).
PathConfig LanProfile();
PathConfig CableProfile(bool upload = false);
PathConfig WifiProfile();
PathConfig LteProfile(bool upload = false);

class Testbed {
 public:
  Testbed(uint64_t seed, const PathConfig& config);

  EventLoop& loop() { return loop_; }
  DuplexPath& path() { return *path_; }
  Rng& rng() { return rng_; }

  struct Flow {
    TcpSocket* sender = nullptr;
    TcpSocket* receiver = nullptr;
    uint64_t flow_id = 0;
  };

  // Creates a connected pair. When `sender_at_client`, data crosses the
  // forward pipe (the configured bottleneck); otherwise it crosses reverse.
  // Connect() is initiated immediately by the sender.
  Flow CreateFlow(const TcpSocket::Config& socket_config, bool sender_at_client = true);

  // The testbed's telemetry spine — the default recording path. Both pipes'
  // qdiscs (forward source 0, reverse 1) and every socket this testbed
  // creates are bound to it at construction; attach spine sinks or create
  // rings to start recording (a SojournSink(0) here is the §7 bottleneck
  // probe). With no consumers, producers skip all telemetry work.
  telemetry::TelemetrySpine& spine() { return spine_; }

 private:
  // One link model of `type`; Cable, WiFi and LTE fork rng_.
  std::unique_ptr<LinkModel> MakeLink(LinkType type, DataRate rate, TimeDelta delay,
                                      double loss_probability);

  EventLoop loop_;
  Rng rng_;
  telemetry::TelemetrySpine spine_;
  std::unique_ptr<DuplexPath> path_;
  std::vector<std::unique_ptr<TcpSocket>> sockets_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_TESTBED_H_
