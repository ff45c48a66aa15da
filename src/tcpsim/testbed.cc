#include "src/tcpsim/testbed.h"

#include <utility>

#include "src/common/check.h"
#include "src/netsim/pfifo_fast.h"

namespace element {

PathConfig LanProfile() {
  PathConfig cfg;
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

Testbed::Testbed(uint64_t seed, const PathConfig& config) : rng_(seed) {
  ELEMENT_CHECK(config.steps.empty() || config.link == LinkType::kFixed)
      << "PathConfig::steps needs LinkType::kFixed";
  ELEMENT_CHECK(config.loss_probability == 0.0 || config.link == LinkType::kFixed)
      << "PathConfig::loss_probability needs LinkType::kFixed";
  // The reverse (ACK) pipe mirrors the forward delay behind a pfifo_fast deep
  // enough that ACKs are never dropped at the profiles' reverse rates.
  constexpr size_t kReverseQueueLimitPackets = 1000;
  auto rev_qdisc = std::make_unique<PfifoFast>(kReverseQueueLimitPackets);
  // The reverse link is lossless and never follows the steps; it is built
  // first, so it forks rng_ before the forward qdisc and link do.
  std::unique_ptr<LinkModel> rev_link =
      MakeLink(config.link, config.reverse_rate, config.one_way_delay, 0.0);
  std::unique_ptr<Qdisc> fwd_qdisc =
      MakeBottleneckQdisc(config.qdisc, config.queue_limit_packets, config.ecn, &rng_);
  std::unique_ptr<LinkModel> fwd_link =
      config.steps.empty()
          ? MakeLink(config.link, config.rate, config.one_way_delay, config.loss_probability)
          : std::make_unique<ScheduledLinkModel>(config.steps, config.one_way_delay,
                                                 config.loss_probability);
  path_ = std::make_unique<DuplexPath>(&loop_, &rng_, std::move(fwd_qdisc), std::move(fwd_link),
                                       std::move(rev_qdisc), std::move(rev_link));
  path_->BindTelemetry(&spine_);
}

std::unique_ptr<LinkModel> Testbed::MakeLink(LinkType type, DataRate rate, TimeDelta delay,
                                             double loss_probability) {
  switch (type) {
    case LinkType::kFixed:
      return std::make_unique<ScheduledLinkModel>(rate, delay, loss_probability);
    case LinkType::kCable:
      return std::make_unique<CableLinkModel>(rate, delay, rng_.Fork());
    case LinkType::kWifi:
      return std::make_unique<WifiLinkModel>(rng_.Fork(), rate, delay);
    case LinkType::kLte:
      return std::make_unique<LteLinkModel>(rng_.Fork(), rate, delay);
  }
  return nullptr;
}

Testbed::Flow Testbed::CreateFlow(const TcpSocket::Config& socket_config,
                                  bool sender_at_client) {
  Flow flow;
  flow.flow_id = path_->AllocateFlowId();
  TcpSocketPair pair = ConnectTcpPair(
      &loop_, &rng_, socket_config, flow.flow_id, {&path_->forward(), &path_->client_demux()},
      {&path_->reverse(), &path_->server_demux()}, sender_at_client);
  flow.sender = pair.sender.get();
  flow.receiver = pair.receiver.get();
  flow.sender->BindTelemetry(&spine_);
  flow.receiver->BindTelemetry(&spine_);
  sockets_.push_back(std::move(pair.sender));
  sockets_.push_back(std::move(pair.receiver));
  return flow;
}

}  // namespace element
