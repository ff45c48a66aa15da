#include "src/tcpsim/testbed.h"

#include <utility>

#include "src/netsim/pfifo_fast.h"

namespace element {

PathConfig LanProfile() {
  PathConfig cfg;
  cfg.link = LinkType::kLan;
  cfg.rate = DataRate::Mbps(1000);
  cfg.one_way_delay = TimeDelta::FromMicros(200);
  cfg.queue_limit_packets = 1000;
  cfg.reverse_rate = DataRate::Mbps(1000);
  return cfg;
}

PathConfig CableProfile(bool upload) {
  PathConfig cfg;
  cfg.link = LinkType::kCable;
  // DOCSIS-like asymmetry: ~100 Mbps down / ~12 Mbps up.
  cfg.rate = upload ? DataRate::Mbps(12) : DataRate::Mbps(100);
  cfg.one_way_delay = TimeDelta::FromMillis(8);
  cfg.queue_limit_packets = upload ? 120 : 400;
  cfg.reverse_rate = upload ? DataRate::Mbps(100) : DataRate::Mbps(12);
  return cfg;
}

PathConfig WifiProfile() {
  PathConfig cfg;
  cfg.link = LinkType::kWifi;
  cfg.rate = DataRate::Mbps(60);  // mean of the Markov-modulated rate
  cfg.one_way_delay = TimeDelta::FromMillis(3);
  cfg.queue_limit_packets = 300;
  cfg.reverse_rate = DataRate::Mbps(60);
  return cfg;
}

PathConfig LteProfile(bool upload) {
  PathConfig cfg;
  cfg.link = LinkType::kLte;
  cfg.rate = upload ? DataRate::Mbps(12) : DataRate::Mbps(25);
  cfg.one_way_delay = TimeDelta::FromMillis(25);
  // Deep basestation/modem buffers: the classic cellular bufferbloat setup.
  cfg.queue_limit_packets = upload ? 500 : 750;
  cfg.reverse_rate = upload ? DataRate::Mbps(25) : DataRate::Mbps(12);
  return cfg;
}

Testbed::Testbed(uint64_t seed, const PathConfig& config) : config_(config), rng_(seed) {
  TimeDelta rev_delay = config_.reverse_one_way_delay.IsZero() ? config_.one_way_delay
                                                               : config_.reverse_one_way_delay;
  auto rev_qdisc = std::make_unique<PfifoFast>(config_.reverse_queue_limit_packets);
  std::unique_ptr<LinkModel> rev_link;
  switch (config_.link) {
    case LinkType::kCable:
      rev_link = std::make_unique<CableLinkModel>(config_.reverse_rate, rev_delay, rng_.Fork());
      break;
    case LinkType::kWifi:
      rev_link = std::make_unique<WifiLinkModel>(rng_.Fork(), config_.reverse_rate, rev_delay);
      break;
    case LinkType::kLte:
      rev_link = std::make_unique<LteLinkModel>(rng_.Fork(), config_.reverse_rate, rev_delay);
      break;
    default:
      rev_link = std::make_unique<FixedLinkModel>(config_.reverse_rate, rev_delay);
      break;
  }
  std::unique_ptr<Qdisc> fwd_qdisc =
      MakeBottleneckQdisc(config_.qdisc, config_.queue_limit_packets, config_.ecn, &rng_);
  if (config_.instrument_bottleneck) {
    auto probe = std::make_unique<InstrumentedQdisc>(std::move(fwd_qdisc));
    bottleneck_probe_ = probe.get();
    fwd_qdisc = std::move(probe);
  }
  path_ = std::make_unique<DuplexPath>(&loop_, &rng_, std::move(fwd_qdisc), MakeForwardLink(),
                                       std::move(rev_qdisc), std::move(rev_link));
  path_->BindTelemetry(&spine_);
}

std::unique_ptr<LinkModel> Testbed::MakeForwardLink() {
  switch (config_.link) {
    case LinkType::kFixed:
    case LinkType::kLan:
      return std::make_unique<FixedLinkModel>(config_.rate, config_.one_way_delay,
                                              config_.loss_probability);
    case LinkType::kStepped:
      return std::make_unique<SteppedLinkModel>(config_.steps, config_.one_way_delay,
                                                config_.loss_probability);
    case LinkType::kCable:
      return std::make_unique<CableLinkModel>(config_.rate, config_.one_way_delay, rng_.Fork());
    case LinkType::kWifi:
      return std::make_unique<WifiLinkModel>(rng_.Fork(), config_.rate, config_.one_way_delay);
    case LinkType::kLte:
      return std::make_unique<LteLinkModel>(rng_.Fork(), config_.rate, config_.one_way_delay);
  }
  return nullptr;
}

Testbed::Flow Testbed::CreateFlow(const TcpSocket::Config& socket_config,
                                  bool sender_at_client) {
  uint64_t flow_id = path_->AllocateFlowId();
  PacketSink* client_tx = &path_->forward();
  PacketSink* server_tx = &path_->reverse();
  Demux* client_rx = &path_->client_demux();
  Demux* server_rx = &path_->server_demux();

  auto a = std::make_unique<TcpSocket>(&loop_, rng_.Fork(), socket_config, flow_id, client_tx,
                                       client_rx);
  auto b = std::make_unique<TcpSocket>(&loop_, rng_.Fork(), socket_config, flow_id, server_tx,
                                       server_rx);
  TcpSocket* client = a.get();
  TcpSocket* server = b.get();
  client->BindTelemetry(&spine_);
  server->BindTelemetry(&spine_);
  sockets_.push_back(std::move(a));
  sockets_.push_back(std::move(b));

  Flow flow;
  flow.flow_id = flow_id;
  if (sender_at_client) {
    flow.sender = client;
    flow.receiver = server;
  } else {
    flow.sender = server;
    flow.receiver = client;
  }
  flow.receiver->Listen();
  flow.sender->Connect();
  return flow;
}

TcpSocket* Testbed::CreateClient(const TcpSocket::Config& socket_config) {
  uint64_t flow_id = path_->AllocateFlowId();
  auto sock = std::make_unique<TcpSocket>(&loop_, rng_.Fork(), socket_config, flow_id,
                                          &path_->forward(), &path_->client_demux());
  TcpSocket* raw = sock.get();
  raw->BindTelemetry(&spine_);
  sockets_.push_back(std::move(sock));
  raw->Connect();
  return raw;
}

TimeDelta Testbed::BaseRtt() const {
  TimeDelta rev = config_.reverse_one_way_delay.IsZero() ? config_.one_way_delay
                                                         : config_.reverse_one_way_delay;
  return config_.one_way_delay + rev;
}

}  // namespace element
