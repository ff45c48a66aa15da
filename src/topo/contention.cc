#include "src/topo/contention.h"

#include <memory>

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
  // One spine per run: qdisc/socket producers route through it, and its
  // registry carries the end-of-run counter snapshot out in the result.
  telemetry::TelemetrySpine spine;
  net.BindTelemetry(&spine);

  TcpSocket::Config socket_config;
  socket_config.congestion_control = config.congestion_control;
  socket_config.ecn = config.ecn;
  MeasuredFlow::Options options;
  options.tracker_period = config.tracker_period;
  options.tracer.record_from = SimTime::FromNanos(static_cast<int64_t>(config.warmup_s * 1e9));

  // Declared before the flows, whose ELEMENT sockets must go first.
  std::vector<std::unique_ptr<TcpSocket>> sockets;
  std::vector<std::unique_ptr<MeasuredFlow>> flows;
  sockets.reserve(2 * static_cast<size_t>(config.flows));
  flows.reserve(static_cast<size_t>(config.flows));
  for (int i = 0; i < config.flows; ++i) {
    int pair = i % net.spec().host_pairs;
    uint64_t flow_id = net.AllocateFlowId();
    net.RouteFlow(flow_id, pair);
    Network::Attachment snd = net.sender(pair);
    Network::Attachment rcv = net.receiver(pair);
    sockets.push_back(std::make_unique<TcpSocket>(&loop, rng.Fork(), socket_config, flow_id,
                                                  snd.tx, snd.rx));
    TcpSocket* sender = sockets.back().get();
    sockets.push_back(std::make_unique<TcpSocket>(&loop, rng.Fork(), socket_config, flow_id,
                                                  rcv.tx, rcv.rx));
    TcpSocket* receiver = sockets.back().get();
    sender->BindTelemetry(&spine);
    receiver->BindTelemetry(&spine);
    receiver->Listen();
    sender->Connect();

    // Only a scored flow 0 reads its ground-truth series (interpolated
    // against ELEMENT's estimates, regardless of warmup).
    bool scored = i == 0 && config.element_on_first;
    options.element = scored ? MeasuredFlow::Element::kMeasured : MeasuredFlow::Element::kOff;
    options.tracer.keep_time_series = scored;
    flows.push_back(std::make_unique<MeasuredFlow>(&loop, sender, receiver, options));
  }

  // Cross traffic is created after the foreground flows so both draw their
  // flow ids and Rng forks in a fixed, seed-stable order.
  CrossTraffic cross(&loop, &rng, &net, config.cross);

  for (const std::unique_ptr<MeasuredFlow>& flow : flows) {
    flow->Start();
  }
  cross.Start();

  loop.RunUntil(SimTime::FromNanos(static_cast<int64_t>(config.duration_s * 1e9)));

  // Propagation floor of the data direction, for the "relative delay" metric.
  double base_s = (config.topo.access_delay * 2.0 +
                   config.topo.bottleneck_delay * static_cast<double>(config.topo.hops))
                      .ToSeconds();
  ContentionResult result;
  std::vector<double> goodputs;
  goodputs.reserve(flows.size());
  for (const std::unique_ptr<MeasuredFlow>& flow : flows) {
    result.flows.push_back(flow->Result(config.congestion_control, config.duration_s, base_s));
    goodputs.push_back(result.flows.back().goodput_mbps);
  }
  result.jain_fairness = JainFairnessIndex(goodputs);

  if (config.element_on_first) {
    const MeasuredFlow& flow0 = *flows.front();
    result.has_accuracy = true;
    result.sender_accuracy = flow0.SenderAccuracy();
    result.receiver_accuracy = flow0.ReceiverAccuracy();
    result.flow0_composition = flow0.tracer().MeanComposition();
  }

  result.forwarded_packets = net.TotalForwardedPackets();
  result.unroutable_packets = net.TotalUnroutablePackets();
  result.cross_flows = cross.flow_count();
  result.cross_bytes_delivered = cross.TotalBytesDelivered();
  result.bottleneck = net.bottleneck_qdisc(0).stats();
  result.processed_events = loop.processed_events();
  net.PublishMetrics(&result.metrics, "topo.");
  *result.metrics.Counter("telemetry.dispatched") += spine.dispatched();
  return result;
}

}  // namespace element
