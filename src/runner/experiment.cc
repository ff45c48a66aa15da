#include "src/runner/experiment.h"

#include <exception>
#include <memory>

#include "src/topo/contention.h"

namespace element {

namespace {

// The legacy app: N iperf flows over one path, flow 0 optionally through the
// ELEMENT interposer; returns per-flow results.
std::vector<FlowResult> RunLegacyFlows(const ScenarioSpec& spec) {
  PathConfig path = spec.BuildPath();
  Testbed bed(spec.seed, path);
  TcpSocket::Config socket_config;
  socket_config.congestion_control = spec.cc;
  socket_config.ecn = path.ecn;
  // No legacy row reads the ground-truth series.
  MeasuredFlow::Options options;
  options.wireless = spec.element_mode == "wireless";
  options.tracer.keep_time_series = false;
  options.tracer.record_from = SimTime::FromNanos(static_cast<int64_t>(spec.warmup_s * 1e9));

  // Each flow starts as soon as it is created.
  std::vector<std::unique_ptr<MeasuredFlow>> flows;
  flows.reserve(static_cast<size_t>(spec.num_flows));
  for (int i = 0; i < spec.num_flows; ++i) {
    Testbed::Flow flow = bed.CreateFlow(socket_config, /*sender_at_client=*/!spec.download);
    options.element = i == 0 && spec.element_mode != "off" ? MeasuredFlow::Element::kInterposed
                                                           : MeasuredFlow::Element::kOff;
    flows.push_back(
        std::make_unique<MeasuredFlow>(&bed.loop(), flow.sender, flow.receiver, options));
    flows.back()->Start();
  }

  bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(spec.duration_s * 1e9)));

  // "Relative delay": end-to-end delay above the propagation floor of the
  // direction the data traverses.
  TimeDelta base = path.one_way_delay;
  if (spec.download && !path.reverse_one_way_delay.IsZero()) {
    base = path.reverse_one_way_delay;
  }
  std::vector<FlowResult> results;
  for (const std::unique_ptr<MeasuredFlow>& flow : flows) {
    results.push_back(flow->Result(spec.cc, spec.duration_s, base.ToSeconds()));
  }
  return results;
}

}  // namespace

AccuracyRun RunAccuracyExperiment(uint64_t seed, const PathConfig& path, double duration_s,
                                  TimeDelta tracker_period, int background_flows) {
  Testbed bed(seed, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  // The flow scores while it runs; nothing reads its series.
  MeasuredFlow::Options options;
  options.element = MeasuredFlow::Element::kMeasured;
  options.tracker_period = tracker_period;
  options.tracer.keep_time_series = false;
  MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
  measured.Start();

  // Staggered background flows (the Figure 8 scenario adds one every 20 s);
  // nothing reads their ground-truth series.
  MeasuredFlow::Options unmeasured;
  unmeasured.tracer.keep_time_series = false;
  std::vector<std::unique_ptr<MeasuredFlow>> background;
  for (int i = 0; i < background_flows; ++i) {
    double start_at = 20.0 * (i + 1);
    bed.loop().ScheduleAt(SimTime::FromNanos(static_cast<int64_t>(start_at * 1e9)),
                          [&bed, &background, &unmeasured] {
                            Testbed::Flow bg = bed.CreateFlow(TcpSocket::Config{});
                            background.push_back(std::make_unique<MeasuredFlow>(
                                &bed.loop(), bg.sender, bg.receiver, unmeasured));
                            background.back()->Start();
                          });
  }

  bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(duration_s * 1e9)));

  AccuracyRun run;
  run.sender = measured.SenderAccuracy();
  run.receiver = measured.ReceiverAccuracy();
  run.composition = measured.tracer().MeanComposition();
  run.goodput_mbps = measured.GoodputMbps(duration_s);
  return run;
}

namespace {

// Folds per-flow rows into the result's registry under the aggregate's
// canonical names — the one place run output meets the merge contract.
void PublishFlowRows(const std::vector<FlowResult>& flows, telemetry::MetricRegistry* metrics) {
  Histogram* sender = metrics->Hist("sender_delay_s");
  Histogram* network = metrics->Hist("network_delay_s");
  Histogram* receiver = metrics->Hist("receiver_delay_s");
  Histogram* e2e = metrics->Hist("e2e_delay_s");
  RunningStats* goodput = metrics->Stats("goodput_mbps");
  uint64_t* retransmits = metrics->Counter("retransmits");
  for (const FlowResult& f : flows) {
    sender->Add(f.sender_delay_s);
    network->Add(f.network_delay_s);
    receiver->Add(f.receiver_delay_s);
    e2e->Add(f.e2e_delay_s);
    goodput->Add(f.goodput_mbps);
    *retransmits += f.retransmits;
  }
}

// Accuracy runs contribute one sample per estimate (absolute error).
void PublishAccuracyErrors(const AccuracyRun& accuracy, telemetry::MetricRegistry* metrics) {
  Histogram* sender_err = metrics->Hist("sender_err_s");
  Histogram* receiver_err = metrics->Hist("receiver_err_s");
  for (double e : accuracy.sender.errors.samples()) {
    sender_err->Add(e);
  }
  for (double e : accuracy.receiver.errors.samples()) {
    receiver_err->Add(e);
  }
}

void FillAccuracyResult(const ScenarioSpec& spec, ScenarioResult* result) {
  int64_t period_ns = static_cast<int64_t>(spec.tracker_period_ms * 1e6);
  result->accuracy =
      RunAccuracyExperiment(spec.seed, spec.BuildPath(), spec.duration_s,
                            TimeDelta::FromNanos(period_ns), spec.background_flows);
  result->has_accuracy = true;
  PublishAccuracyErrors(result->accuracy, &result->metrics);
  const GroundTruthTracer::Composition& c = result->accuracy.composition;
  result->metrics.Hist("sender_delay_s")->Add(c.sender_s);
  result->metrics.Hist("network_delay_s")->Add(c.network_s);
  result->metrics.Hist("receiver_delay_s")->Add(c.receiver_s);
  result->metrics.Hist("e2e_delay_s")->Add(c.sender_s + c.network_s + c.receiver_s);
  result->metrics.Stats("goodput_mbps")->Add(result->accuracy.goodput_mbps);
}

void FillContentionResult(const ScenarioSpec& spec, ScenarioResult* result) {
  ContentionConfig cfg;
  cfg.topo = spec.BuildTopology();
  cfg.flows = spec.num_flows;
  cfg.congestion_control = spec.cc;
  cfg.ecn = spec.ecn;
  cfg.cross.iperf_flows = spec.cross_iperf;
  cfg.cross.onoff_flows = spec.cross_onoff;
  cfg.cross.congestion_control = spec.cc;
  cfg.cross.ecn = spec.ecn;
  cfg.element_on_first = spec.element_mode == "first";
  cfg.tracker_period = TimeDelta::FromNanos(static_cast<int64_t>(spec.tracker_period_ms * 1e6));
  cfg.duration_s = spec.duration_s;
  cfg.warmup_s = spec.warmup_s;
  cfg.seed = spec.seed;
  ContentionResult run = RunContentionExperiment(cfg);

  result->flows = run.flows;
  PublishFlowRows(result->flows, &result->metrics);

  if (run.has_accuracy) {
    result->has_accuracy = true;
    result->accuracy.sender = run.sender_accuracy;
    result->accuracy.receiver = run.receiver_accuracy;
    result->accuracy.composition = run.flow0_composition;
    result->accuracy.goodput_mbps = run.flows.empty() ? 0.0 : run.flows.front().goodput_mbps;
    PublishAccuracyErrors(result->accuracy, &result->metrics);
  }
  // The contention run's own registry snapshot (topo.* counters) rides
  // along in the same mergeable store.
  result->metrics.Merge(run.metrics);

  result->has_topology = true;
  result->jain_fairness = run.jain_fairness;
  result->forwarded_packets = run.forwarded_packets;
  result->unroutable_packets = run.unroutable_packets;
  result->cross_flows = static_cast<uint64_t>(run.cross_flows);
  result->cross_bytes = run.cross_bytes_delivered;
}

}  // namespace

ScenarioResult ExecuteScenario(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.spec = spec;
  std::string problem = spec.Validate();
  if (!problem.empty()) {
    result.error = problem;
    return result;
  }
  try {
    if (spec.topology != "none") {
      FillContentionResult(spec, &result);
    } else if (spec.app == "accuracy") {
      FillAccuracyResult(spec, &result);
    } else {
      result.flows = RunLegacyFlows(spec);
      PublishFlowRows(result.flows, &result.metrics);
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

}  // namespace element
