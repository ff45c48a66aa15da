// element_lab: the command-line laboratory. Runs any of the repository's
// experiment shapes with configurable path, congestion control, duration,
// and seed, and optionally exports CSVs for external plotting.
//
//   element_lab measure  [--rate-mbps 10] [--owd-ms 25] [--qdisc pfifo_fast]
//                        [--cc cubic] [--duration 30] [--seed 1]
//                        [--csv-dir DIR]
//   element_lab minimize [same path flags] [--flows 3] [--wireless]
//   element_lab probe    [same path flags]
//   element_lab vr       [--rate-mbps 50] [--element]
//   element_lab trace    --trace-file trace.csv [--cc cubic] [--duration 30]
//
// `measure` decomposes a flow's latency (ELEMENT vs ground truth);
// `minimize` compares plain vs interposed legacy flows; `probe` runs the
// Table-1 tool comparison; `vr` runs the §5.2 scenario; `trace` replays a
// bandwidth trace CSV ("t_seconds,mbps").

#include <cstdio>
#include <memory>
#include <string>

#include "src/apps/iperf_app.h"
#include "src/apps/vr_app.h"
#include "src/common/flags.h"
#include "src/element/byte_sink.h"
#include "src/element/element_socket.h"
#include "src/element/estimation_error.h"
#include "src/element/interposer.h"
#include "src/netsim/pfifo_fast.h"
#include "src/netsim/trace_link.h"
#include "src/tcpsim/testbed.h"
#include "src/tools/probe_tools.h"
#include "src/trace/export.h"
#include "src/trace/ground_truth.h"

using namespace element;

namespace {

QdiscType ParseQdisc(const std::string& name) {
  if (name == "codel") {
    return QdiscType::kCoDel;
  }
  if (name == "fq_codel") {
    return QdiscType::kFqCoDel;
  }
  if (name == "pie") {
    return QdiscType::kPie;
  }
  if (name == "red") {
    return QdiscType::kRed;
  }
  return QdiscType::kPfifoFast;
}

PathConfig PathFromFlags(const Flags& flags) {
  PathConfig path;
  double mbps = flags.GetDouble("rate-mbps", 10.0);
  double owd = flags.GetDouble("owd-ms", 25.0);
  path.rate = DataRate::Mbps(mbps);
  path.one_way_delay = TimeDelta::FromSeconds(owd / 1000.0);
  path.qdisc = ParseQdisc(flags.GetString("qdisc", "pfifo_fast"));
  double bdp_pkts = mbps * 1e6 / 8.0 * owd * 2e-3 / 1500.0;
  path.queue_limit_packets = static_cast<size_t>(
      flags.GetInt("queue-pkts", static_cast<int64_t>(std::max(60.0, 2.0 * bdp_pkts))));
  path.loss_probability = flags.GetDouble("loss", 0.0);
  path.ecn = flags.GetBool("ecn");
  return path;
}

int CmdMeasure(const Flags& flags) {
  PathConfig path = PathFromFlags(flags);
  double duration = flags.GetDouble("duration", 30.0);
  Testbed bed(static_cast<uint64_t>(flags.GetInt("seed", 1)), path);
  TcpSocket::Config cfg;
  cfg.congestion_control = flags.GetString("cc", "cubic");
  Testbed::Flow flow = bed.CreateFlow(cfg);
  GroundTruthTracer tracer;
  flow.sender->telemetry().AttachSink(&tracer);
  flow.receiver->telemetry().AttachSink(&tracer);
  ElementSocket::Options opt;
  opt.enable_latency_minimization = false;
  ElementSocket em_snd(&bed.loop(), flow.sender, opt);
  ElementSocket em_rcv(&bed.loop(), flow.receiver, opt);
  ElementSink sink(&em_snd);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(&em_rcv);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(duration * 1e9)));

  GroundTruthTracer::Composition c = tracer.MeanComposition();
  AccuracyResult acc =
      ScoreEstimates(em_snd.sender_estimator().delay_series(), tracer.sender_delay_series());
  std::printf("ground truth : sender %.3f s | network %.3f s | receiver %.3f s\n", c.sender_s,
              c.network_s, c.receiver_s);
  std::printf("ELEMENT      : sender %.3f s | network %.3f s | receiver %.3f s\n",
              em_snd.sender_estimator().delay_samples().mean(),
              em_snd.path_estimator().one_way_network_delay().ToSeconds(),
              em_rcv.receiver_estimator().delay_samples().mean());
  std::printf("sender accuracy %.1f%% (median |err| %.4f s over %zu samples)\n",
              acc.accuracy * 100, acc.median_abs_error_s, acc.compared_samples);
  std::printf("goodput %.2f Mbps\n",
              RateOver(static_cast<int64_t>(flow.receiver->app_bytes_read()),
                       TimeDelta::FromSeconds(duration))
                  .ToMbps());

  std::string csv_dir = flags.GetString("csv-dir");
  if (!csv_dir.empty()) {
    WriteTimeSeriesCsvFile(csv_dir + "/element_sender_delay.csv",
                           em_snd.sender_estimator().delay_series(), "delay_s");
    WriteTimeSeriesCsvFile(csv_dir + "/ground_truth_sender_delay.csv",
                           tracer.sender_delay_series(), "delay_s");
    WriteCdfCsvFile(csv_dir + "/sender_error_cdf.csv", acc.errors,
                    {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}, "abs_error_s");
    std::printf("CSVs written to %s/\n", csv_dir.c_str());
  }
  return 0;
}

int CmdMinimize(const Flags& flags) {
  PathConfig path = PathFromFlags(flags);
  double duration = flags.GetDouble("duration", 30.0);
  int flows = static_cast<int>(flags.GetInt("flows", 3));
  auto run = [&](bool with_element) {
    Testbed bed(static_cast<uint64_t>(flags.GetInt("seed", 1)), path);
    struct Per {
      Testbed::Flow flow;
      std::unique_ptr<GroundTruthTracer> tracer;
      std::unique_ptr<ByteSink> sink;
      std::unique_ptr<IperfApp> app;
      std::unique_ptr<SinkApp> reader;
    };
    std::vector<Per> per(static_cast<size_t>(flows));
    for (int i = 0; i < flows; ++i) {
      Per& p = per[static_cast<size_t>(i)];
      TcpSocket::Config cfg;
      cfg.congestion_control = flags.GetString("cc", "cubic");
      p.flow = bed.CreateFlow(cfg);
      p.tracer = std::make_unique<GroundTruthTracer>();
      p.flow.sender->telemetry().AttachSink(p.tracer.get());
      p.flow.receiver->telemetry().AttachSink(p.tracer.get());
      if (i == 0 && with_element) {
        p.sink = std::make_unique<InterposedSink>(&bed.loop(), p.flow.sender,
                                                  flags.GetBool("wireless"));
      } else {
        p.sink = std::make_unique<RawTcpSink>(p.flow.sender);
      }
      p.app = std::make_unique<IperfApp>(&bed.loop(), p.sink.get());
      p.reader = std::make_unique<SinkApp>(p.flow.receiver);
      p.app->Start();
      p.reader->Start();
    }
    bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(duration * 1e9)));
    double delay = per[0].tracer->end_to_end_delay().mean() - path.one_way_delay.ToSeconds();
    double tput = RateOver(static_cast<int64_t>(per[0].flow.receiver->app_bytes_read()),
                           TimeDelta::FromSeconds(duration))
                      .ToMbps();
    return std::pair<double, double>(delay, tput);
  };
  auto [d0, t0] = run(false);
  auto [d1, t1] = run(true);
  std::printf("flow 0 relative delay: plain %.3f s -> ELEMENT %.3f s (%.1fx)\n", d0, d1,
              d0 / std::max(d1, 1e-4));
  std::printf("flow 0 throughput    : plain %.2f Mbps -> ELEMENT %.2f Mbps\n", t0, t1);
  return 0;
}

int CmdProbe(const Flags& flags) {
  PathConfig path = PathFromFlags(flags);
  double duration = flags.GetDouble("duration", 30.0);
  Testbed bed(static_cast<uint64_t>(flags.GetInt("seed", 1)), path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  GroundTruthTracer tracer;
  flow.sender->telemetry().AttachSink(&tracer);
  flow.receiver->telemetry().AttachSink(&tracer);
  ElementSocket::Options opt;
  opt.enable_latency_minimization = false;
  ElementSocket em(&bed.loop(), flow.sender, opt);
  ElementSink sink(&em);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  SynProbeTool tcpping(&bed.loop(), &bed.path(), SynProbeTool::TcpPing());
  tcpping.Start();
  bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(duration * 1e9)));
  std::printf("ground-truth sender delay : %.3f s\n", tracer.sender_delay().mean());
  std::printf("tcpping RTT               : %.3f s (blind to the above)\n",
              tcpping.rtt_samples().mean());
  std::printf("ELEMENT sender estimate   : %.3f s\n",
              em.sender_estimator().delay_samples().mean());
  return 0;
}

int CmdVr(const Flags& flags) {
  PathConfig path = PathFromFlags(flags);
  if (!flags.Has("rate-mbps")) {
    path.rate = DataRate::Mbps(50);
    path.one_way_delay = TimeDelta::FromMillis(10);
    path.queue_limit_packets = 80;
  }
  bool with_element = flags.GetBool("element");
  Testbed bed(static_cast<uint64_t>(flags.GetInt("seed", 1)), path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  std::unique_ptr<ElementSocket> em;
  if (with_element) {
    em = std::make_unique<ElementSocket>(&bed.loop(), flow.sender, ElementSocket::Options{});
  }
  VrConfig cfg;
  VrServer server(&bed.loop(), flow.sender, em.get(), cfg);
  VrClient client(&bed.loop(), flow.receiver, &server, cfg);
  server.Start();
  client.Start();
  double duration = flags.GetDouble("duration", 30.0);
  bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(duration * 1e9)));
  std::printf("%s: frames %lu, p50 delay %.0f ms, deadline misses %.1f%%\n",
              with_element ? "VR + ELEMENT" : "VR plain",
              static_cast<unsigned long>(client.frames_received()),
              client.frame_delays().Quantile(0.5) * 1000, client.DeadlineMissFraction() * 100);
  return 0;
}

int CmdTrace(const Flags& flags) {
  std::string file = flags.GetString("trace-file");
  std::vector<TracePoint> trace;
  if (file.empty()) {
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
    trace = TraceLinkModel::SynthesizeCellular(
        &rng, DataRate::Mbps(flags.GetDouble("rate-mbps", 20.0)),
        TimeDelta::FromSeconds(flags.GetDouble("duration", 30.0)));
    std::printf("(no --trace-file: synthesized a cellular-like trace)\n");
  } else {
    trace = TraceLinkModel::LoadCsvFile(file);
    if (trace.empty()) {
      std::fprintf(stderr, "could not load trace from %s\n", file.c_str());
      return 1;
    }
  }
  EventLoop loop;
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)) + 1);
  DuplexPath path(&loop, &rng, std::make_unique<PfifoFast>(200),
                  std::make_unique<TraceLinkModel>(trace, TimeDelta::FromMillis(25)),
                  std::make_unique<PfifoFast>(1000),
                  std::make_unique<FixedLinkModel>(DataRate::Gbps(1), TimeDelta::FromMillis(25)));
  uint64_t flow_id = path.AllocateFlowId();
  TcpSocket::Config cfg;
  cfg.congestion_control = flags.GetString("cc", "cubic");
  TcpSocket sender(&loop, rng.Fork(), cfg, flow_id, &path.forward(), &path.client_demux());
  TcpSocket receiver(&loop, rng.Fork(), cfg, flow_id, &path.reverse(), &path.server_demux());
  receiver.Listen();
  sender.Connect();
  RawTcpSink sink(&sender);
  IperfApp app(&loop, &sink);
  SinkApp reader(&receiver);
  app.Start();
  reader.Start();
  double duration = flags.GetDouble("duration", 30.0);
  loop.RunUntil(SimTime::FromNanos(static_cast<int64_t>(duration * 1e9)));
  std::printf("trace replay (%zu points): goodput %.2f Mbps, retransmits %lu\n", trace.size(),
              RateOver(static_cast<int64_t>(receiver.app_bytes_read()),
                       TimeDelta::FromSeconds(duration))
                  .ToMbps(),
              static_cast<unsigned long>(sender.total_retransmits()));
  return 0;
}

void Usage() {
  std::printf(
      "element_lab <measure|minimize|probe|vr|trace> [flags]\n"
      "common flags: --rate-mbps N --owd-ms N --qdisc pfifo_fast|codel|fq_codel|pie|red\n"
      "              --cc cubic|reno|vegas|bbr|ledbat --duration S --seed N --loss P --ecn\n"
      "measure:  --csv-dir DIR  export series/CDF CSVs\n"
      "minimize: --flows N --wireless\n"
      "vr:       --element\n"
      "trace:    --trace-file F (t_seconds,mbps CSV; synthesized if omitted)\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  if (flags.positional().empty()) {
    Usage();
    return 1;
  }
  const std::string& cmd = flags.positional()[0];
  if (cmd == "measure") {
    return CmdMeasure(flags);
  }
  if (cmd == "minimize") {
    return CmdMinimize(flags);
  }
  if (cmd == "probe") {
    return CmdProbe(flags);
  }
  if (cmd == "vr") {
    return CmdVr(flags);
  }
  if (cmd == "trace") {
    return CmdTrace(flags);
  }
  Usage();
  return 1;
}
