#include "src/topo/cross_traffic.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace element {

namespace {
// Write granularity for on-off bursts; matches IperfApp's default chunk.
constexpr size_t kBurstChunkBytes = 128 * 1024;

// On-off shape. Burst sizes are Pareto with this mean (heavy tailed, like
// web-object sizes); idle gaps are exponential.
constexpr double kMeanBurstBytes = 256.0 * 1024.0;
constexpr double kParetoShape = 1.5;
constexpr TimeDelta kMeanOffTime = TimeDelta::FromMillis(500);
static_assert(kParetoShape > 1.0, "on-off Pareto shape must be > 1 for a finite mean burst");
// Pareto mean = scale * shape / (shape - 1); solve for scale so bursts
// average kMeanBurstBytes.
constexpr double kBurstScale = kMeanBurstBytes * (kParetoShape - 1.0) / kParetoShape;
}  // namespace

OnOffSender::OnOffSender(EventLoop* loop, TcpSocket* socket, Rng rng)
    : socket_(socket),
      rng_(std::move(rng)),
      off_timer_(loop, [this] { StartBurst(); }) {}

void OnOffSender::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  socket_->SetWritableCallback([this] { Pump(); });
  StartBurst();
}

void OnOffSender::StartBurst() {
  double draw = rng_.Pareto(kBurstScale, kParetoShape);
  uint64_t min_burst = socket_->mss();
  burst_remaining_ = std::max<uint64_t>(min_burst, static_cast<uint64_t>(std::llround(draw)));
  Pump();
}

void OnOffSender::Pump() {
  while (burst_remaining_ > 0) {
    size_t want = static_cast<size_t>(
        std::min<uint64_t>(burst_remaining_, kBurstChunkBytes));
    size_t accepted = socket_->Write(want);
    if (accepted == 0) {
      return;  // buffer full; the writable callback resumes the burst
    }
    burst_remaining_ -= accepted;
  }
  // Burst complete: go idle for an exponential off period.
  off_timer_.RestartAfter(TimeDelta::FromSeconds(rng_.Exponential(kMeanOffTime.ToSeconds())));
}

CrossTraffic::CrossTraffic(EventLoop* loop, Rng* rng, Network* net,
                           const CrossTrafficConfig& config)
    : config_(config) {
  for (int hop = 0; hop < net->spec().hops; ++hop) {
    for (int i = 0; i < config_.iperf_flows; ++i) {
      AddFlow(loop, rng, net, hop, /*onoff=*/false);
    }
    for (int i = 0; i < config_.onoff_flows; ++i) {
      AddFlow(loop, rng, net, hop, /*onoff=*/true);
    }
  }
}

void CrossTraffic::AddFlow(EventLoop* loop, Rng* rng, Network* net, int hop, bool onoff) {
  CrossFlow flow;
  flow.pair = net->AttachHostPair(hop, hop + 1);
  flow.flow_id = net->AllocateFlowId();
  net->RouteFlow(flow.flow_id, flow.pair);

  TcpSocket::Config socket_config;
  socket_config.congestion_control = config_.congestion_control;
  socket_config.ecn = net->spec().ecn;
  TcpSocketPair pair = ConnectTcpPair(loop, rng, socket_config, flow.flow_id,
                                      net->sender(flow.pair), net->receiver(flow.pair));
  flow.sender = std::move(pair.sender);
  flow.receiver = std::move(pair.receiver);

  flow.sink = std::make_unique<RawTcpSink>(flow.sender.get());
  if (onoff) {
    flow.onoff = std::make_unique<OnOffSender>(loop, flow.sender.get(), rng->Fork());
  } else {
    flow.iperf = std::make_unique<IperfApp>(loop, flow.sink.get());
  }
  flow.reader = std::make_unique<SinkApp>(flow.receiver.get());
  flows_.push_back(std::move(flow));
}

void CrossTraffic::Start() {
  for (CrossFlow& flow : flows_) {
    flow.reader->Start();
    if (flow.onoff != nullptr) {
      flow.onoff->Start();
    } else {
      flow.iperf->Start();
    }
  }
}

uint64_t CrossTraffic::TotalBytesDelivered() const {
  uint64_t total = 0;
  for (const CrossFlow& flow : flows_) {
    total += flow.receiver->app_bytes_read();
  }
  return total;
}

}  // namespace element
