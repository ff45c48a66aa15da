#include "src/topo/topology.h"

#include <sstream>
#include <utility>

#include "src/netsim/pfifo_fast.h"

namespace element {

std::string TopologySpec::Validate() const {
  std::ostringstream os;
  if (host_pairs < 1) {
    os << "host_pairs must be >= 1, got " << host_pairs;
  } else if (hops < 1) {
    os << "hops must be >= 1, got " << hops;
  } else if (shape == TopologyShape::kDumbbell && hops != 1) {
    os << "dumbbell topologies have exactly one hop, got " << hops;
  } else if (hops > 16) {
    os << "hops must be <= 16, got " << hops;
  } else if (bottleneck_rate.IsZero()) {
    os << "bottleneck_rate must be positive";
  } else if (queue_limit_packets == 0) {
    os << "queue_limit_packets must be >= 1";
  }
  return os.str();
}

Network::Network(EventLoop* loop, Rng* rng, const TopologySpec& spec)
    : loop_(loop), rng_(rng), spec_(spec) {
  ELEMENT_CHECK(spec_.Validate().empty()) << "bad TopologySpec: " << spec_.Validate();
  access_rate_ = spec_.access_rate.IsZero() ? spec_.bottleneck_rate * 10.0
                                            : spec_.access_rate;
  DataRate reverse_rate = spec_.reverse_rate.IsZero() ? spec_.bottleneck_rate
                                                      : spec_.reverse_rate;

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
    auto fwd_link = std::make_unique<FixedLinkModel>(spec_.bottleneck_rate,
                                                     spec_.bottleneck_delay);
    pipes_.push_back(std::make_unique<Pipe>(loop_, rng_->Fork(), std::move(qdisc),
                                            std::move(fwd_link),
                                            fwd_routers_[static_cast<size_t>(h + 1)].get()));
    fwd_bottlenecks_.push_back(pipes_.back().get());
    int fwd_port = fwd_routers_[static_cast<size_t>(h)]->AddPort(pipes_.back().get());
    fwd_routers_[static_cast<size_t>(h)]->SetDefaultPort(fwd_port);

    size_t rev_limit = spec_.access_queue_packets > spec_.queue_limit_packets
                           ? spec_.access_queue_packets
                           : spec_.queue_limit_packets;
    auto rev_qdisc = std::make_unique<PfifoFast>(rev_limit);
    auto rev_link = std::make_unique<FixedLinkModel>(reverse_rate, spec_.bottleneck_delay);
    pipes_.push_back(std::make_unique<Pipe>(loop_, rng_->Fork(), std::move(rev_qdisc),
                                            std::move(rev_link),
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
  auto qdisc = std::make_unique<PfifoFast>(spec_.access_queue_packets);
  auto link = std::make_unique<FixedLinkModel>(access_rate_, spec_.access_delay);
  pipes_.push_back(
      std::make_unique<Pipe>(loop_, rng_->Fork(), std::move(qdisc), std::move(link), out));
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

uint64_t Network::AllocateFlowId() {
  if (!free_flow_ids_.empty()) {
    uint64_t id = free_flow_ids_.back();
    free_flow_ids_.pop_back();
    return id;
  }
  return next_flow_id_++;
}

void Network::ReleaseFlowId(uint64_t flow_id) {
  ELEMENT_DCHECK(flow_id > 0 && flow_id < next_flow_id_)
      << "releasing unallocated flow id " << flow_id;
  free_flow_ids_.push_back(flow_id);
}

void Network::RouteFlow(uint64_t flow_id, int pair) {
  const HostPair& p = pairs_[static_cast<size_t>(pair)];
  fwd_routers_[static_cast<size_t>(p.receiver_level)]->AddRoute(flow_id, p.fwd_exit_port);
  rev_routers_[static_cast<size_t>(p.sender_level)]->AddRoute(flow_id, p.rev_exit_port);
}

void Network::UnrouteFlow(uint64_t flow_id, int pair) {
  const HostPair& p = pairs_[static_cast<size_t>(pair)];
  fwd_routers_[static_cast<size_t>(p.receiver_level)]->RemoveRoute(flow_id);
  rev_routers_[static_cast<size_t>(p.sender_level)]->RemoveRoute(flow_id);
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
