#include "perfbench/workloads.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

#include "perfbench/probes.h"
#include "src/apps/iperf_app.h"
#include "src/element/delay_estimator.h"
#include "src/element/element_socket.h"
#include "src/runner/fleet.h"
#include "src/topo/cross_traffic.h"
#include "src/topo/router.h"
#include "src/trace/ground_truth.h"

namespace perfbench {

using element::DataRate;
using element::GroundTruthTracer;
using element::Qdisc;
using element::QdiscStats;
using element::SimTime;
using element::TcpSocket;
using element::TimeDelta;

namespace {

SimTime At(double seconds) { return SimTime::FromNanos(static_cast<int64_t>(seconds * 1e9)); }

double GoodputMbps(uint64_t bytes_read, double duration_s) {
  return element::RateOver(static_cast<int64_t>(bytes_read), TimeDelta::FromSeconds(duration_s))
      .ToMbps();
}

// Public stats alone cannot see the queue, so they can only show that the
// drop breakdown adds up and that no more left the queue than entered it.
bool StatsConserve(const QdiscStats& s) {
  return s.dropped_packets == s.dropped_pre_queue_packets + s.dropped_from_queue_packets &&
         s.enqueued_packets >= s.dequeued_packets + s.dropped_from_queue_packets;
}

// With the qdisc at hand: enqueued = dequeued + dropped_from_queue + queued.
bool QdiscConserves(const Qdisc& q) {
  const QdiscStats& s = q.stats();
  return StatsConserve(s) &&
         s.enqueued_packets == s.dequeued_packets + s.dropped_from_queue_packets + q.packet_count();
}

void Fail(SimOutcome* o, const std::string& problem) {
  if (o->problem.empty()) {
    o->problem = problem;
  }
}

// Decomposition check for a flow, or none. The ground-truth means are taken
// over different byte populations (bytes sent but not yet read at the end,
// bytes written before the warmup cut), which only agree once delays are
// small against the run: true for single_path's 30 s run with ~0.1 s
// delays, false for dumbbell_128's 2 s run, where 54 of the 128 flows'
// means miss with seed 7.
struct Decomposition {
  bool checked = false;
  double sender_s = 0.0;
  double network_s = 0.0;
  double receiver_s = 0.0;
  double e2e_s = 0.0;
};

Decomposition Means(const GroundTruthTracer& tracer) {
  GroundTruthTracer::Composition c = tracer.MeanComposition();
  return Decomposition{true, c.sender_s, c.network_s, c.receiver_s,
                       tracer.end_to_end_delay().mean()};
}

// One flow's output check: it established, read bytes, and (when checked)
// its ground-truth decomposition adds up to its end-to-end delay.
void CheckFlow(SimOutcome* o, size_t index, bool established, double goodput_mbps,
               const Decomposition& d) {
  ++o->flows;
  o->goodput_mbps.push_back(goodput_mbps);
  std::string flow = "flow " + std::to_string(index);
  if (!established) {
    ++o->failed_flows;
    Fail(o, flow + " never established");
  } else if (goodput_mbps <= 0.0) {
    ++o->failed_flows;
    Fail(o, flow + " read zero bytes");
  } else if (d.checked && !element::DelayDecompositionConserves(d.sender_s, d.network_s,
                                                                 d.receiver_s, d.e2e_s)) {
    ++o->failed_flows;
    Fail(o, flow + " ground-truth decomposition does not conserve");
  }
}

void CheckRun(SimOutcome* o, bool ok, const std::string& problem) {
  if (!ok) {
    o->run_failed = true;
    Fail(o, problem);
  }
}

}  // namespace

element::PathConfig SinglePathConfig() {
  element::PathConfig path;
  path.qdisc = element::QdiscType::kCoDel;
  path.rate = DataRate::Mbps(10);
  path.one_way_delay = TimeDelta::FromMillis(25);
  return path;
}

element::ContentionConfig DumbbellConfig(uint64_t seed, double duration_s) {
  element::ContentionConfig cfg;
  cfg.topo.shape = element::TopologyShape::kDumbbell;
  cfg.topo.host_pairs = 32;
  cfg.topo.qdisc = element::QdiscType::kFqCoDel;
  cfg.topo.queue_limit_packets = 500;
  cfg.topo.bottleneck_rate = DataRate::Mbps(200);
  cfg.flows = 128;
  cfg.element_on_first = true;
  cfg.duration_s = duration_s;
  cfg.warmup_s = 0.5;
  cfg.seed = seed;
  return cfg;
}

std::string CompareOutcomes(const SimOutcome& a, const SimOutcome& b) {
  if (a.processed_events != 0 && b.processed_events != 0 &&
      a.processed_events != b.processed_events) {
    return "processed_events " + std::to_string(a.processed_events) + " vs " +
           std::to_string(b.processed_events);
  }
  if (a.goodput_mbps != b.goodput_mbps) {
    return "bytes read per flow differ";
  }
  if (a.sender_err_s != b.sender_err_s || a.receiver_err_s != b.receiver_err_s) {
    return "ELEMENT estimate errors differ";
  }
  if (a.failed_flows != b.failed_flows || a.run_failed != b.run_failed) {
    return "output checks differ";
  }
  return "";
}

void LayerReport::Add(const LayerReport& o) {
  sim_s += o.sim_s;
  run_ns += o.run_ns;
  events += o.events;
  heap_capacity = std::max(heap_capacity, o.heap_capacity);
  slab_slots = std::max(slab_slots, o.slab_slots);
  segs_out += o.segs_out;
  retransmits += o.retransmits;
  qdisc_offered += o.qdisc_offered;
  qdisc_enqueued += o.qdisc_enqueued;
  qdisc_dropped += o.qdisc_dropped;
  qdisc_marked += o.qdisc_marked;
  forwarded += o.forwarded;
  unroutable += o.unroutable;
  routes = std::max(routes, o.routes);
  host_pairs = std::max(host_pairs, o.host_pairs);
  trace_records += o.trace_records;
  dispatched += o.dispatched;
  estimates += o.estimates;
  pending_records_end += o.pending_records_end;
}

// ---- single_path -------------------------------------------------------------

SimOutcome RunSinglePathDriver(uint64_t seed, double duration_s) {
  element::AccuracyRun run = element::RunAccuracyExperiment(seed, SinglePathConfig(), duration_s);
  SimOutcome o;
  o.sender_err_s = run.sender.errors.samples();
  o.receiver_err_s = run.receiver.errors.samples();
  // The driver reports no end-to-end mean (its composition total is the sum
  // of the parts), so the decomposition check runs in the replica.
  CheckFlow(&o, 0, run.goodput_mbps > 0.0, run.goodput_mbps, Decomposition{});
  return o;
}

SimOutcome RunSinglePathReplica(uint64_t seed, double duration_s, SpanRecorder* rec,
                                LayerReport* report) {
  // RunAccuracyExperiment's wiring, with Testbed::CreateFlow spelled out so
  // the sockets' tx sinks and demux entries can be decorated.
  element::Testbed bed(seed, SinglePathConfig());
  Probes probes(rec);
  element::DuplexPath& path = bed.path();
  uint64_t flow_id = path.AllocateFlowId();
  auto sender = std::make_unique<TcpSocket>(&bed.loop(), bed.rng().Fork(), TcpSocket::Config{},
                                            flow_id, probes.Tx(&path.forward()),
                                            probes.SocketDemux(&path.client_demux()));
  auto receiver = std::make_unique<TcpSocket>(&bed.loop(), bed.rng().Fork(), TcpSocket::Config{},
                                              flow_id, probes.Tx(&path.reverse()),
                                              probes.SocketDemux(&path.server_demux()));
  probes.AttachRx(&path.client_demux(), sender.get());
  probes.AttachRx(&path.server_demux(), receiver.get());
  sender->BindTelemetry(&bed.spine());
  receiver->BindTelemetry(&bed.spine());
  receiver->Listen();
  sender->Connect();

  GroundTruthTracer tracer;
  element::telemetry::RecordSink* trace_sink = probes.Trace(&tracer);
  sender->telemetry().AttachSink(trace_sink);
  receiver->telemetry().AttachSink(trace_sink);

  element::ElementSocket::Options opt;
  opt.enable_latency_minimization = false;
  opt.tracker_period = TimeDelta::FromMillis(10);
  element::ElementSocket em_snd(&bed.loop(), sender.get(), opt);
  element::ElementSocket em_rcv(&bed.loop(), receiver.get(), opt);

  EmByteSink em_sink(&em_snd);
  element::IperfApp app(&bed.loop(), probes.Writes(&em_sink, Layer::kElemSend));
  Reader reader(receiver.get(), &em_rcv, rec);
  app.Start();
  reader.Start();

  int64_t t0 = NowNs();
  bed.loop().RunUntil(At(duration_s));
  int64_t run_ns = NowNs() - t0;

  SimOutcome o;
  o.processed_events = bed.loop().processed_events();
  o.sender_err_s = element::ScoreEstimates(em_snd.sender_estimator().delay_series(),
                                           tracer.sender_delay_series())
                       .errors.samples();
  o.receiver_err_s = element::ScoreEstimates(em_rcv.receiver_estimator().delay_series(),
                                             tracer.receiver_delay_series())
                         .errors.samples();
  CheckFlow(&o, 0, sender->established(), GoodputMbps(receiver->app_bytes_read(), duration_s),
            Means(tracer));
  Qdisc& fwd = path.forward().qdisc();
  CheckRun(&o, QdiscConserves(fwd) && QdiscConserves(path.reverse().qdisc()),
           "qdisc stats do not conserve packets");
  uint64_t unroutable =
      path.client_demux().unroutable_packets() + path.server_demux().unroutable_packets();
  CheckRun(&o, unroutable == 0, "unroutable packets");

  if (report != nullptr) {
    LayerReport r;
    r.sim_s = duration_s;
    r.run_ns = run_ns;
    r.events = bed.loop().processed_events();
    r.heap_capacity = bed.loop().heap_capacity();
    r.slab_slots = bed.loop().slab_slots();
    element::TcpInfoData info = sender->GetTcpInfo();
    r.segs_out = info.tcpi_segs_out;
    r.retransmits = info.tcpi_total_retrans;
    r.qdisc_offered = fwd.stats().enqueued_packets + fwd.stats().dropped_pre_queue_packets;
    r.qdisc_enqueued = fwd.stats().enqueued_packets;
    r.qdisc_dropped = fwd.stats().dropped_packets;
    r.qdisc_marked = fwd.stats().ecn_marked_packets;
    r.unroutable = unroutable;
    r.trace_records = probes.trace_records();
    r.dispatched = bed.spine().dispatched();
    r.estimates = em_snd.sender_estimator().delay_series().count() +
                  em_rcv.receiver_estimator().delay_series().count();
    r.pending_records_end = em_snd.sender_estimator().pending_records() +
                            em_rcv.receiver_estimator().pending_records();
    report->Add(r);
  }
  return o;
}

// ---- dumbbell_128 ------------------------------------------------------------

SimOutcome RunDumbbellDriver(uint64_t seed, double duration_s) {
  element::ContentionResult run = element::RunContentionExperiment(DumbbellConfig(seed, duration_s));
  SimOutcome o;
  o.processed_events = run.processed_events;
  for (size_t i = 0; i < run.flows.size(); ++i) {
    const element::ContentionFlowResult& f = run.flows[i];
    // Goodput > 0 implies the handshake completed.
    CheckFlow(&o, i, f.goodput_mbps > 0.0, f.goodput_mbps, Decomposition{});
  }
  o.sender_err_s = run.sender_accuracy.errors.samples();
  o.receiver_err_s = run.receiver_accuracy.errors.samples();
  CheckRun(&o, run.unroutable_packets == 0, "unroutable packets");
  CheckRun(&o, StatsConserve(run.bottleneck), "bottleneck qdisc stats do not conserve packets");
  return o;
}

namespace {

struct ForegroundFlow {
  std::unique_ptr<TcpSocket> sender;
  std::unique_ptr<TcpSocket> receiver;
  std::unique_ptr<GroundTruthTracer> tracer;
  std::unique_ptr<element::ElementSocket> em_snd;
  std::unique_ptr<element::ElementSocket> em_rcv;
  std::unique_ptr<element::ByteSink> sink;
  std::unique_ptr<element::IperfApp> app;
  std::unique_ptr<Reader> reader;
};

}  // namespace

SimOutcome RunDumbbellReplica(uint64_t seed, double duration_s, SpanRecorder* rec,
                              LayerReport* report) {
  // RunContentionExperiment's wiring, statement for statement.
  const element::ContentionConfig config = DumbbellConfig(seed, duration_s);
  element::EventLoop loop;
  element::Rng rng(config.seed);
  element::Network net(&loop, &rng, config.topo);
  element::telemetry::TelemetrySpine spine;
  net.BindTelemetry(&spine);
  SimTime warmup = At(config.warmup_s);
  Probes probes(rec);

  TcpSocket::Config socket_config;
  socket_config.congestion_control = config.congestion_control;
  socket_config.ecn = config.ecn;

  std::vector<ForegroundFlow> flows;
  flows.reserve(static_cast<size_t>(config.flows));
  for (int i = 0; i < config.flows; ++i) {
    ForegroundFlow flow;
    int pair = i % net.spec().host_pairs;
    uint64_t flow_id = net.AllocateFlowId();
    net.RouteFlow(flow_id, pair);
    element::Network::Attachment snd = net.sender(pair);
    element::Network::Attachment rcv = net.receiver(pair);
    flow.sender = std::make_unique<TcpSocket>(&loop, rng.Fork(), socket_config, flow_id,
                                              probes.Tx(snd.tx), probes.SocketDemux(snd.rx));
    probes.AttachRx(snd.rx, flow.sender.get());
    flow.receiver = std::make_unique<TcpSocket>(&loop, rng.Fork(), socket_config, flow_id,
                                                probes.Tx(rcv.tx), probes.SocketDemux(rcv.rx));
    probes.AttachRx(rcv.rx, flow.receiver.get());
    flow.sender->BindTelemetry(&spine);
    flow.receiver->BindTelemetry(&spine);
    GroundTruthTracer::Config tracer_config;
    tracer_config.record_from = warmup;
    tracer_config.keep_time_series = true;
    flow.tracer = std::make_unique<GroundTruthTracer>(tracer_config);
    element::telemetry::RecordSink* trace_sink = probes.Trace(flow.tracer.get());
    flow.sender->telemetry().AttachSink(trace_sink);
    flow.receiver->telemetry().AttachSink(trace_sink);
    flow.receiver->Listen();
    flow.sender->Connect();

    element::ByteSink* app_sink = nullptr;
    if (i == 0 && config.element_on_first) {
      element::ElementSocket::Options options;
      options.enable_latency_minimization = false;
      options.tracker_period = config.tracker_period;
      flow.em_snd = std::make_unique<element::ElementSocket>(&loop, flow.sender.get(), options);
      flow.em_rcv = std::make_unique<element::ElementSocket>(&loop, flow.receiver.get(), options);
      flow.sink = std::make_unique<EmByteSink>(flow.em_snd.get());
      flow.reader = std::make_unique<Reader>(flow.receiver.get(), flow.em_rcv.get(), rec);
      app_sink = probes.Writes(flow.sink.get(), Layer::kElemSend);
    } else {
      flow.sink = std::make_unique<element::RawTcpSink>(flow.sender.get());
      flow.reader = std::make_unique<Reader>(flow.receiver.get(), nullptr, rec);
      app_sink = probes.Writes(flow.sink.get(), Layer::kTcpWrite);
    }
    flow.app = std::make_unique<element::IperfApp>(&loop, app_sink);
    flows.push_back(std::move(flow));
  }

  element::CrossTraffic cross(&loop, &rng, &net, config.cross);
  for (ForegroundFlow& flow : flows) {
    flow.app->Start();
    flow.reader->Start();
  }
  cross.Start();

  int64_t t0 = NowNs();
  loop.RunUntil(At(config.duration_s));
  int64_t run_ns = NowNs() - t0;

  SimOutcome o;
  o.processed_events = loop.processed_events();
  for (size_t i = 0; i < flows.size(); ++i) {
    const ForegroundFlow& flow = flows[i];
    CheckFlow(&o, i, flow.sender->established(),
              GoodputMbps(flow.receiver->app_bytes_read(), config.duration_s), Decomposition{});
  }
  const ForegroundFlow& flow0 = flows.front();
  o.sender_err_s = element::ScoreEstimates(flow0.em_snd->sender_estimator().delay_series(),
                                           flow0.tracer->sender_delay_series())
                       .errors.samples();
  o.receiver_err_s = element::ScoreEstimates(flow0.em_rcv->receiver_estimator().delay_series(),
                                             flow0.tracer->receiver_delay_series())
                         .errors.samples();
  bool conserved = true;
  for (int h = 0; h < config.topo.hops; ++h) {
    conserved = conserved && QdiscConserves(net.bottleneck_qdisc(h));
  }
  CheckRun(&o, conserved, "bottleneck qdisc stats do not conserve packets");
  CheckRun(&o, net.TotalUnroutablePackets() == 0, "unroutable packets");

  if (report != nullptr) {
    LayerReport r;
    r.sim_s = config.duration_s;
    r.run_ns = run_ns;
    r.events = loop.processed_events();
    r.heap_capacity = loop.heap_capacity();
    r.slab_slots = loop.slab_slots();
    for (const ForegroundFlow& flow : flows) {
      element::TcpInfoData info = flow.sender->GetTcpInfo();
      r.segs_out += info.tcpi_segs_out;
      r.retransmits += info.tcpi_total_retrans;
    }
    for (int h = 0; h < config.topo.hops; ++h) {
      const QdiscStats& s = net.bottleneck_qdisc(h).stats();
      r.qdisc_offered += s.enqueued_packets + s.dropped_pre_queue_packets;
      r.qdisc_enqueued += s.enqueued_packets;
      r.qdisc_dropped += s.dropped_packets;
      r.qdisc_marked += s.ecn_marked_packets;
    }
    r.forwarded = net.TotalForwardedPackets();
    r.unroutable = net.TotalUnroutablePackets();
    r.routes = static_cast<uint64_t>(config.flows);
    r.host_pairs = static_cast<uint64_t>(config.topo.host_pairs);
    r.trace_records = probes.trace_records();
    r.dispatched = spine.dispatched();
    r.estimates = flow0.em_snd->sender_estimator().delay_series().count() +
                  flow0.em_rcv->receiver_estimator().delay_series().count();
    r.pending_records_end = flow0.em_snd->sender_estimator().pending_records() +
                            flow0.em_rcv->receiver_estimator().pending_records();
    report->Add(r);
  }
  return o;
}

namespace {

class NullPort : public element::PacketSink {
 public:
  void Deliver(element::Packet pkt) override { bytes_ += pkt.size_bytes; }
  uint64_t bytes() const { return bytes_; }

 private:
  uint64_t bytes_ = 0;
};

}  // namespace

double RouteNanos(uint64_t routes, uint64_t ports, int packets) {
  if (routes == 0 || ports == 0 || packets <= 0) {
    return 0.0;
  }
  element::Router router("perfbench");
  std::vector<NullPort> sinks(ports);
  for (NullPort& sink : sinks) {
    router.AddPort(&sink);
  }
  // Flow ids start at 1 and are spread over the ports round-robin, as the
  // dumbbell assigns flows to host pairs.
  for (uint64_t f = 1; f <= routes; ++f) {
    router.AddRoute(f, static_cast<int>((f - 1) % ports));
  }
  element::Packet pkt;
  pkt.size_bytes = element::kFullPacketBytes;
  int64_t t0 = NowNs();
  for (int i = 0; i < packets; ++i) {
    pkt.flow_id = 1 + static_cast<uint64_t>(i) % routes;
    router.Deliver(pkt);
  }
  int64_t elapsed = NowNs() - t0;
  uint64_t delivered = 0;
  for (const NullPort& sink : sinks) {
    delivered += sink.bytes();
  }
  if (delivered != static_cast<uint64_t>(packets) * element::kFullPacketBytes) {
    return -1.0;  // a lookup went astray; the caller reports it as a failure
  }
  return static_cast<double>(elapsed) / packets;
}

// ---- fleet_grid --------------------------------------------------------------

bool LoadGrid(const std::string& path, uint64_t seed, std::vector<element::ScenarioSpec>* specs,
              std::string* error) {
  element::ScenarioSuite suite;
  if (!element::ScenarioSuite::LoadFile(path, &suite, error)) {
    return false;
  }
  // Each --seed selects its own block of grid seeds.
  suite.OffsetSeeds(seed * static_cast<uint64_t>(suite.scenarios.size()));
  *specs = std::move(suite.scenarios);
  return true;
}

FleetPass RunFleetPass(const std::vector<element::ScenarioSpec>& specs, int jobs, bool traced) {
  FleetPass pass;
  std::mutex mu;
  element::FleetOptions options;
  options.jobs = jobs;
  if (traced) {
    options.run = [&pass, &mu](const element::ScenarioSpec& spec) {
      double t0 = NowSeconds();
      element::ScenarioResult result = element::ExecuteScenario(spec);
      double elapsed = NowSeconds() - t0;
      std::lock_guard<std::mutex> lock(mu);
      pass.scenario_s.push_back(elapsed);
      return result;
    };
  }
  double t0 = NowSeconds();
  element::FleetSummary summary = element::RunFleet(specs, options);
  pass.wall_s = NowSeconds() - t0;

  // FleetReportJson folds the results through AggregateResults itself.
  double t1 = NowSeconds();
  pass.report = element::FleetReportJson("fleet_grid", summary, /*deterministic=*/true).Dump(-1);
  pass.aggregate_s = NowSeconds() - t1;

  pass.failed = summary.failed;
  pass.cancelled = summary.cancelled;
  pass.jobs = summary.jobs;
  for (const element::ScenarioResult& r : summary.results) {
    if (r.ok) {
      pass.sim_s += r.spec.duration_s;
    }
    pass.result_s.push_back(r.wall_seconds);
  }
  return pass;
}

}  // namespace perfbench
