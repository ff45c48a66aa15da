// Testbed: builds the sender/WAN-emulator/receiver topology of the paper's
// experiments — a duplex path with a configurable bottleneck qdisc and link
// model — and wires connected TCP socket pairs onto it.

#ifndef ELEMENT_SRC_TCPSIM_TESTBED_H_
#define ELEMENT_SRC_TCPSIM_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/evloop/event_loop.h"
#include "src/netsim/instrumented_qdisc.h"
#include "src/netsim/link_model.h"
#include "src/netsim/pipe.h"
#include "src/netsim/qdisc_factory.h"
#include "src/tcpsim/tcp_socket.h"
#include "src/telemetry/spine.h"

namespace element {

enum class LinkType { kFixed, kStepped, kLan, kCable, kWifi, kLte };

struct PathConfig {
  // Bottleneck (data direction) configuration.
  QdiscType qdisc = QdiscType::kPfifoFast;
  size_t queue_limit_packets = 100;  // ~2x BDP for the default profile
  bool ecn = false;

  // Wrap the bottleneck qdisc in an InstrumentedQdisc (per-packet sojourn
  // probe, the paper's §7 lower-layer tracing extension).
  bool instrument_bottleneck = false;

  LinkType link = LinkType::kFixed;
  DataRate rate = DataRate::Mbps(10);
  TimeDelta one_way_delay = TimeDelta::FromMillis(25);
  double loss_probability = 0.0;
  std::vector<SteppedLinkModel::Step> steps;  // for LinkType::kStepped

  // Reverse (ACK) direction; generous defaults so ACKs are not the bottleneck
  // unless a test wants them to be.
  DataRate reverse_rate = DataRate::Gbps(1);
  TimeDelta reverse_one_way_delay = TimeDelta::Zero();  // Zero => mirror forward
  size_t reverse_queue_limit_packets = 1000;
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
  const PathConfig& config() const { return config_; }

  struct Flow {
    TcpSocket* sender = nullptr;
    TcpSocket* receiver = nullptr;
    uint64_t flow_id = 0;
  };

  // Creates a connected pair. When `sender_at_client`, data crosses the
  // forward pipe (the configured bottleneck); otherwise it crosses reverse.
  // Connect() is initiated immediately by the sender.
  Flow CreateFlow(const TcpSocket::Config& socket_config, bool sender_at_client = true);

  // Client-only socket (Connect() already called); pair it with a TcpListener
  // installed on the server demux.
  TcpSocket* CreateClient(const TcpSocket::Config& socket_config);

  // Sum of a flow's base (propagation-only) round trip.
  TimeDelta BaseRtt() const;

  // Non-null when `instrument_bottleneck` was set.
  InstrumentedQdisc* bottleneck_probe() { return bottleneck_probe_; }

  // The testbed's telemetry spine — the default recording path. Both pipes'
  // qdiscs and every socket this testbed creates are bound to it at
  // construction; attach sinks (or per-flow sinks via a socket's
  // telemetry()) to start recording. With no consumers, producers skip all
  // telemetry work.
  telemetry::TelemetrySpine& spine() { return spine_; }

 private:
  std::unique_ptr<LinkModel> MakeForwardLink();

  PathConfig config_;
  EventLoop loop_;
  Rng rng_;
  telemetry::TelemetrySpine spine_;
  std::unique_ptr<DuplexPath> path_;
  InstrumentedQdisc* bottleneck_probe_ = nullptr;
  std::vector<std::unique_ptr<TcpSocket>> sockets_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_TESTBED_H_
