#include "src/topo/contention.h"

#include <memory>
#include <utility>

namespace element {

double JainFairnessIndex(const std::vector<double>& values) {
  if (values.size() <= 1) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq <= 0.0) {
    return 1.0;
  }
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

ContentionResult RunContentionExperiment(const ContentionConfig& config) {
  ELEMENT_CHECK(config.flows >= 1) << "contention run needs at least one foreground flow";
  EventLoop loop;
  Rng rng(config.seed);
  Network net(&loop, &rng, config.topo);
  // One spine per run: qdisc/socket producers route through it. Nothing here
  // attaches a spine sink or ring, so it stays off.
  telemetry::TelemetrySpine spine;
  net.BindTelemetry(&spine);

  FlowSetConfig flow_config;
  flow_config.flows = config.flows;
  flow_config.socket.congestion_control = config.congestion_control;
  flow_config.socket.ecn = config.ecn;
  flow_config.others.tracker_period = config.tracker_period;
  flow_config.others.tracer.keep_time_series = false;  // nothing reads the series
  flow_config.others.tracer.record_from =
      SimTime::FromNanos(static_cast<int64_t>(config.warmup_s * 1e9));
  // A measured flow 0 is scored while it runs: every estimate against the
  // truth recorded after warmup.
  flow_config.first = flow_config.others;
  if (config.element_on_first) {
    flow_config.first.element = MeasuredFlow::Element::kMeasured;
  }
  flow_config.duration_s = config.duration_s;

  // Declared before the flows, whose ELEMENT sockets must go first. Flows are
  // round-robined over the spec's end-to-end host pairs, data always forward.
  std::vector<std::unique_ptr<TcpSocket>> sockets;
  sockets.reserve(2 * static_cast<size_t>(config.flows));
  auto make_pair = [&](const TcpSocket::Config& socket) {
    int pair = static_cast<int>(sockets.size() / 2) % net.spec().host_pairs;
    uint64_t flow_id = net.AllocateFlowId();
    net.RouteFlow(flow_id, pair);
    TcpSocketPair made =
        ConnectTcpPair(&loop, &rng, socket, flow_id, net.sender(pair), net.receiver(pair));
    Testbed::Flow flow{made.sender.get(), made.receiver.get(), flow_id};
    flow.sender->BindTelemetry(&spine);
    flow.receiver->BindTelemetry(&spine);
    sockets.push_back(std::move(made.sender));
    sockets.push_back(std::move(made.receiver));
    return flow;
  };
  FlowSet flows(&loop, flow_config, make_pair);

  // Cross traffic is created after the foreground flows so both draw their
  // flow ids and Rng forks in a fixed, seed-stable order.
  CrossTraffic cross(&loop, &rng, &net, config.cross);

  flows.Start();
  cross.Start();
  flows.Run();

  // Propagation floor of the data direction, for the "relative delay" metric;
  // every end-to-end pair spans levels 0..hops.
  double base_s = (net.BaseRtt(0) / 2).ToSeconds();
  ContentionResult result;
  result.flows = flows.Results(base_s);
  std::vector<double> goodputs;
  goodputs.reserve(result.flows.size());
  for (const ContentionFlowResult& flow : result.flows) {
    goodputs.push_back(flow.goodput_mbps);
  }
  result.jain_fairness = JainFairnessIndex(goodputs);

  if (config.element_on_first) {
    AccuracyRun flow0 = flows.FirstAccuracy();
    result.has_accuracy = true;
    result.sender_accuracy = std::move(flow0.sender);
    result.receiver_accuracy = std::move(flow0.receiver);
    result.flow0_composition = flow0.composition;
  }

  result.forwarded_packets = net.TotalForwardedPackets();
  result.unroutable_packets = net.TotalUnroutablePackets();
  result.cross_flows = cross.flow_count();
  result.cross_bytes_delivered = cross.TotalBytesDelivered();
  result.bottleneck = net.bottleneck_qdisc(0).stats();
  result.processed_events = loop.processed_events();
  return result;
}

}  // namespace element
