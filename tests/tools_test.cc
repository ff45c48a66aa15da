// Tests for the simulated diagnosis tools (tcpping/paping/hping3/echoping)
// and the Table 1 blindness property: SYN probes see only network RTT, never
// the endhost system delay.

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/iperf_app.h"
#include "src/apps/measured_flow.h"
#include "src/element/byte_sink.h"
#include "src/tcpsim/testbed.h"
#include "src/tools/probe_tools.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

TEST(SynProbeTest, IdlePathRttMatchesBase) {
  PathConfig path;  // 10 Mbps, 25 ms OWD
  Testbed bed(1, path);
  SynProbeTool tool(&bed.loop(), &bed.path(), SynProbeTool::TcpPing());
  tool.Start();
  bed.loop().RunUntil(Sec(20.0));
  ASSERT_GT(tool.rtt_samples().count(), 10u);
  EXPECT_NEAR(tool.rtt_samples().mean(), 0.050, 0.005);
  EXPECT_LT(tool.rtt_samples().Stdev(), 0.005);
}

TEST(SynProbeTest, AllThreeProfilesMeasureSimilarly) {
  PathConfig path;
  Testbed bed(2, path);
  SynProbeTool tcpping(&bed.loop(), &bed.path(), SynProbeTool::TcpPing());
  SynProbeTool paping(&bed.loop(), &bed.path(), SynProbeTool::Paping());
  SynProbeTool hping(&bed.loop(), &bed.path(), SynProbeTool::Hping3());
  tcpping.Start();
  paping.Start();
  hping.Start();
  bed.loop().RunUntil(Sec(20.0));
  EXPECT_NEAR(tcpping.rtt_samples().mean(), paping.rtt_samples().mean(), 0.005);
  EXPECT_NEAR(paping.rtt_samples().mean(), hping.rtt_samples().mean(), 0.005);
}

TEST(SynProbeTest, BlindToSenderSystemDelay) {
  // Table 1's central point: with a bulk Cubic flow bloating the sender's
  // buffer, the probe tools still report ~network RTT while the ground-truth
  // sender delay is an order of magnitude larger.
  PathConfig path;
  Testbed bed(3, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  MeasuredFlow bulk(&bed.loop(), flow.sender, flow.receiver, MeasuredFlow::Options{});
  bulk.Start();
  SynProbeTool tool(&bed.loop(), &bed.path(), SynProbeTool::TcpPing());
  tool.Start();
  bed.loop().RunUntil(Sec(30.0));
  double probe_rtt = tool.rtt_samples().mean();
  double sender_delay = bulk.tracer().sender_delay().mean();
  EXPECT_GT(sender_delay, probe_rtt * 1.5);
  // Probe RTT = base + queueing, bounded by the queue capacity (~120 ms+50).
  EXPECT_LT(probe_rtt, 0.25);
}

TEST(EchoPingTest, MeasuresFullTransferTime) {
  PathConfig path;  // 10 Mbps: a 256 KB document takes >= ~210 ms wire time
  Testbed bed(5, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  // The document must cross the bottleneck: the HTTP "client" sits at the
  // testbed's server side, so the response flows over the forward pipe.
  EchoPing echo(&bed.loop(), flow.receiver, flow.sender);
  echo.Start();
  bed.loop().RunUntil(Sec(30.0));
  ASSERT_GT(echo.transfer_times().count(), 5u);
  // Total time includes serialization (~210 ms) + RTT; far above probe RTT.
  EXPECT_GT(echo.transfer_times().mean(), 0.2);
  EXPECT_LT(echo.transfer_times().mean(), 2.0);
}

TEST(EchoPingTest, SeesServerSideBufferDelayUnderLoad) {
  // With a competing bulk flow congesting the path, echoping's one number
  // grows — but it cannot say *where* the time went.
  PathConfig path;
  Testbed bed(6, path);
  Testbed::Flow bulk = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(bulk.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(bulk.receiver);
  app.Start();
  reader.Start();
  Testbed::Flow echo_flow = bed.CreateFlow(TcpSocket::Config{});
  EchoPing echo(&bed.loop(), echo_flow.receiver, echo_flow.sender);
  echo.Start();
  bed.loop().RunUntil(Sec(40.0));
  ASSERT_GT(echo.transfer_times().count(), 3u);
  PathConfig idle_path;
  Testbed idle_bed(7, idle_path);
  Testbed::Flow idle_flow = idle_bed.CreateFlow(TcpSocket::Config{});
  EchoPing idle_echo(&idle_bed.loop(), idle_flow.receiver, idle_flow.sender);
  idle_echo.Start();
  idle_bed.loop().RunUntil(Sec(40.0));
  EXPECT_GT(echo.transfer_times().mean(), idle_echo.transfer_times().mean() * 1.3);
}

}  // namespace
}  // namespace element
