#include "src/topo/topology.h"

#include <algorithm>
#include <utility>

#include "src/netsim/pfifo_fast.h"

namespace element {
namespace {

// Host access links: 10x the bottleneck rate, behind a 1000-packet
// pfifo_fast that also floors each reverse hop's queue.
constexpr double kAccessRateFactor = 10.0;
constexpr size_t kAccessQueuePackets = 1000;

}  // namespace

std::string TopologySpec::Validate() const {
  std::string problem;
  if (host_pairs < 1) {
    problem = "host_pairs must be >= 1, got " + std::to_string(host_pairs);
  } else if (hops < 1) {
    problem = "hops must be >= 1, got " + std::to_string(hops);
  } else if (shape == TopologyShape::kDumbbell && hops != 1) {
    problem = "dumbbell topologies have exactly one hop, got " + std::to_string(hops);
  } else if (hops > 16) {
    problem = "hops must be <= 16, got " + std::to_string(hops);
  } else if (bottleneck_rate.IsZero()) {
    problem = "bottleneck_rate must be positive";
  } else if (queue_limit_packets == 0) {
    problem = "queue_limit_packets must be >= 1";
  }
  return problem;
}

Network::Network(EventLoop* loop, Rng* rng, const TopologySpec& spec)
    : loop_(loop), rng_(rng), spec_(spec), access_line_(loop), bottleneck_line_(loop) {
  ELEMENT_CHECK(spec_.Validate().empty()) << "bad TopologySpec: " << spec_.Validate();

  int levels = spec_.hops + 1;
  fwd_routers_.reserve(static_cast<size_t>(levels));
  rev_routers_.reserve(static_cast<size_t>(levels));
  for (int l = 0; l < levels; ++l) {
    fwd_routers_.push_back(std::make_unique<Router>("fwd_r" + std::to_string(l)));
    rev_routers_.push_back(std::make_unique<Router>("rev_r" + std::to_string(l)));
  }

  // Bottleneck pipes. Forward hop h carries data toward higher levels and
  // runs the spec's qdisc; the reverse hop carries ACKs back through a roomy
  // pfifo_fast. Default routes point "onward" so only exit hops need
  // exact-match entries.
  for (int h = 0; h < spec_.hops; ++h) {
    std::unique_ptr<Qdisc> qdisc = MakeBottleneckQdisc(spec_.qdisc, spec_.queue_limit_packets,
                                                       spec_.ecn, rng_);
    auto fwd_link = std::make_unique<ScheduledLinkModel>(spec_.bottleneck_rate,
                                                         spec_.bottleneck_delay);
    pipes_.push_back(std::make_unique<Pipe>(loop_, rng_->Fork(), std::move(qdisc),
                                            std::move(fwd_link), &bottleneck_line_,
                                            fwd_routers_[static_cast<size_t>(h + 1)].get()));
    fwd_bottlenecks_.push_back(pipes_.back().get());
    int fwd_port = fwd_routers_[static_cast<size_t>(h)]->AddPort(pipes_.back().get());
    fwd_routers_[static_cast<size_t>(h)]->SetDefaultPort(fwd_port);

    auto rev_qdisc =
        std::make_unique<PfifoFast>(std::max(kAccessQueuePackets, spec_.queue_limit_packets));
    auto rev_link =
        std::make_unique<ScheduledLinkModel>(spec_.bottleneck_rate, spec_.bottleneck_delay);
    pipes_.push_back(std::make_unique<Pipe>(loop_, rng_->Fork(), std::move(rev_qdisc),
                                            std::move(rev_link), &bottleneck_line_,
                                            rev_routers_[static_cast<size_t>(h)].get()));
    rev_bottlenecks_.push_back(pipes_.back().get());
    int rev_port = rev_routers_[static_cast<size_t>(h + 1)]->AddPort(pipes_.back().get());
    rev_routers_[static_cast<size_t>(h + 1)]->SetDefaultPort(rev_port);
  }

  // End-to-end host pairs span the whole path.
  for (int p = 0; p < spec_.host_pairs; ++p) {
    AttachHostPair(0, spec_.hops);
  }
}

Pipe* Network::MakeAccessPipe(PacketSink* out) {
  auto qdisc = std::make_unique<PfifoFast>(kAccessQueuePackets);
  auto link = std::make_unique<ScheduledLinkModel>(spec_.bottleneck_rate * kAccessRateFactor,
                                                   spec_.access_delay);
  pipes_.push_back(
      std::make_unique<Pipe>(loop_, rng_->Fork(), std::move(qdisc), std::move(link),
                             &access_line_, out));
  return pipes_.back().get();
}

int Network::AttachHostPair(int sender_level, int receiver_level) {
  ELEMENT_CHECK(sender_level >= 0 && receiver_level <= spec_.hops &&
                sender_level < receiver_level)
      << "bad host pair levels " << sender_level << " -> " << receiver_level;
  HostPair pair;
  pair.sender_level = sender_level;
  pair.receiver_level = receiver_level;
  pair.sender_rx = std::make_unique<Demux>();
  pair.receiver_rx = std::make_unique<Demux>();
  pair.sender_out = MakeAccessPipe(fwd_routers_[static_cast<size_t>(sender_level)].get());
  pair.receiver_out = MakeAccessPipe(rev_routers_[static_cast<size_t>(receiver_level)].get());
  pair.sender_in = MakeAccessPipe(pair.sender_rx.get());
  pair.receiver_in = MakeAccessPipe(pair.receiver_rx.get());
  pair.fwd_exit_port =
      fwd_routers_[static_cast<size_t>(receiver_level)]->AddPort(pair.receiver_in);
  pair.rev_exit_port = rev_routers_[static_cast<size_t>(sender_level)]->AddPort(pair.sender_in);
  pairs_.push_back(std::move(pair));
  return static_cast<int>(pairs_.size()) - 1;
}

Network::Attachment Network::sender(int pair) const {
  const HostPair& p = pairs_[static_cast<size_t>(pair)];
  return Attachment{p.sender_out, p.sender_rx.get()};
}

Network::Attachment Network::receiver(int pair) const {
  const HostPair& p = pairs_[static_cast<size_t>(pair)];
  return Attachment{p.receiver_out, p.receiver_rx.get()};
}

void Network::RouteFlow(uint64_t flow_id, int pair) {
  const HostPair& p = pairs_[static_cast<size_t>(pair)];
  fwd_routers_[static_cast<size_t>(p.receiver_level)]->AddRoute(flow_id, p.fwd_exit_port);
  rev_routers_[static_cast<size_t>(p.sender_level)]->AddRoute(flow_id, p.rev_exit_port);
}

Qdisc& Network::bottleneck_qdisc(int hop) {
  return fwd_bottlenecks_[static_cast<size_t>(hop)]->qdisc();
}

TimeDelta Network::BaseRtt(int pair) const {
  const HostPair& p = pairs_[static_cast<size_t>(pair)];
  TimeDelta one_way = spec_.access_delay * 2 +
                      spec_.bottleneck_delay * (p.receiver_level - p.sender_level);
  return one_way * 2;
}

uint64_t Network::TotalForwardedPackets() const {
  uint64_t total = 0;
  for (const auto& r : fwd_routers_) {
    total += r->stats().forwarded_packets;
  }
  for (const auto& r : rev_routers_) {
    total += r->stats().forwarded_packets;
  }
  return total;
}

uint64_t Network::TotalUnroutablePackets() const {
  uint64_t total = 0;
  for (const auto& r : fwd_routers_) {
    total += r->stats().unroutable_packets;
  }
  for (const auto& r : rev_routers_) {
    total += r->stats().unroutable_packets;
  }
  return total;
}

}  // namespace element
