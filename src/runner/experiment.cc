#include "src/runner/experiment.h"

#include <exception>

#include "src/topo/contention.h"

namespace element {

AccuracyRun RunAccuracyExperiment(uint64_t seed, const PathConfig& path, double duration_s,
                                  TimeDelta tracker_period, int background_flows) {
  Testbed bed(seed, path);
  FlowSetConfig config;
  // Flow 0 scores while it runs; nothing reads any flow's series.
  config.others.tracer.keep_time_series = false;
  config.first = config.others;
  config.first.element = MeasuredFlow::Element::kMeasured;
  config.first.tracker_period = tracker_period;
  config.staggered_flows = background_flows;
  config.duration_s = duration_s;
  FlowSet flows(&bed, config);
  flows.Start();
  flows.Run();
  return flows.FirstAccuracy();
}

namespace {

// The legacy app: N iperf flows over one path, flow 0 optionally through the
// ELEMENT interposer.
std::vector<FlowResult> RunLegacyApp(const ScenarioSpec& spec) {
  PathConfig path = spec.BuildPath();
  Testbed bed(spec.seed, path);
  FlowSetConfig config;
  config.flows = spec.num_flows;
  config.socket.congestion_control = spec.cc;
  config.socket.ecn = path.ecn;
  // No legacy row reads the ground-truth series.
  config.others.wireless = spec.element_mode == "wireless";
  config.others.tracer.keep_time_series = false;
  config.others.tracer.record_from =
      SimTime::FromNanos(static_cast<int64_t>(spec.warmup_s * 1e9));
  config.first = config.others;
  if (spec.element_mode != "off") {
    config.first.element = MeasuredFlow::Element::kInterposed;
  }
  config.duration_s = spec.duration_s;
  FlowSet flows(&bed, config);
  flows.Start();
  flows.Run();

  // "Relative delay": end-to-end delay above the path's propagation floor.
  return flows.Results(path.one_way_delay.ToSeconds());
}

// Runs the spec's app on its path, keeping the rows, flow 0's accuracy and
// the path's own counters.
void RunSpec(const ScenarioSpec& spec, ScenarioResult* result) {
  if (spec.app == "accuracy") {
    result->accuracy = RunAccuracyExperiment(spec.seed, spec.BuildPath(), spec.duration_s);
    result->has_accuracy = true;
    return;
  }
  if (spec.topology == "none") {
    result->flows = RunLegacyApp(spec);
    return;
  }
  ContentionConfig cfg;
  cfg.topo = spec.BuildTopology();
  cfg.flows = spec.num_flows;
  cfg.congestion_control = spec.cc;
  cfg.ecn = spec.ecn;
  cfg.cross.iperf_flows = spec.cross_iperf;
  cfg.cross.onoff_flows = spec.cross_onoff;
  cfg.cross.congestion_control = spec.cc;
  cfg.element_on_first = spec.element_mode == "first";
  cfg.duration_s = spec.duration_s;
  cfg.warmup_s = spec.warmup_s;
  cfg.seed = spec.seed;
  ContentionResult run = RunContentionExperiment(cfg);
  result->flows = run.flows;
  if (run.has_accuracy) {
    result->has_accuracy = true;
    result->accuracy = {run.sender_accuracy, run.receiver_accuracy, run.flow0_composition,
                        run.flows.front().goodput_mbps};
  }
  result->has_topology = true;
  result->jain_fairness = run.jain_fairness;
  result->forwarded_packets = run.forwarded_packets;
  result->unroutable_packets = run.unroutable_packets;
  result->cross_flows = static_cast<uint64_t>(run.cross_flows);
  result->cross_bytes = run.cross_bytes_delivered;
}

// Folds the run into the registry under the aggregate's canonical names, the
// one place run output meets the merge contract: one sample per flow row, or
// for the accuracy app (no rows, no retransmits counter) flow 0's composition
// with its total as the end-to-end sample; one absolute-error sample per
// ELEMENT estimate.
void Publish(ScenarioResult* result) {
  telemetry::MetricRegistry& metrics = result->metrics;
  Histogram* sender = metrics.Hist("sender_delay_s");
  Histogram* network = metrics.Hist("network_delay_s");
  Histogram* receiver = metrics.Hist("receiver_delay_s");
  Histogram* e2e = metrics.Hist("e2e_delay_s");
  RunningStats* goodput = metrics.Stats("goodput_mbps");
  if (result->spec.app == "accuracy") {
    const GroundTruthTracer::Composition& c = result->accuracy.composition;
    sender->Add(c.sender_s);
    network->Add(c.network_s);
    receiver->Add(c.receiver_s);
    e2e->Add(c.sender_s + c.network_s + c.receiver_s);
    goodput->Add(result->accuracy.goodput_mbps);
  } else {
    uint64_t* retransmits = metrics.Counter("retransmits");
    for (const FlowResult& f : result->flows) {
      sender->Add(f.sender_delay_s);
      network->Add(f.network_delay_s);
      receiver->Add(f.receiver_delay_s);
      e2e->Add(f.e2e_delay_s);
      goodput->Add(f.goodput_mbps);
      *retransmits += f.retransmits;
    }
  }
  if (result->has_accuracy) {
    Histogram* sender_err = metrics.Hist("sender_err_s");
    Histogram* receiver_err = metrics.Hist("receiver_err_s");
    for (double e : result->accuracy.sender.errors.samples()) {
      sender_err->Add(e);
    }
    for (double e : result->accuracy.receiver.errors.samples()) {
      receiver_err->Add(e);
    }
  }
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
    RunSpec(spec, &result);
    Publish(&result);
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

}  // namespace element
