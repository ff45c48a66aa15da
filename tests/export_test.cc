// Tests for the trace export helpers (CSV/JSON) and the RFC 2861 idle-restart
// behaviour added to the stack.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/netsim/pfifo_fast.h"
#include "src/tcpsim/testbed.h"
#include "src/trace/export.h"

namespace element {
namespace {

SimTime Ms(int64_t ms) { return SimTime::FromNanos(ms * 1'000'000); }
SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

TEST(ExportTest, TimeSeriesCsvRoundTrip) {
  TimeSeries ts;
  ts.Add(Ms(100), 1.5);
  ts.Add(Ms(200), 2.5);
  std::ostringstream os;
  WriteTimeSeriesCsv(os, ts, "delay_s");
  EXPECT_EQ(os.str(), "t_seconds,delay_s\n0.1,1.5\n0.2,2.5\n");
}

TEST(ExportTest, CdfCsvHasQuantileRows) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  std::ostringstream os;
  WriteCdfCsv(os, s, {0.5, 0.9}, "v");
  std::string out = os.str();
  EXPECT_NE(out.find("quantile,v"), std::string::npos);
  EXPECT_NE(out.find("0.5,50.5"), std::string::npos);
  EXPECT_NE(out.find("0.9,90.1"), std::string::npos);
}

TEST(ExportTest, SummaryJsonFields) {
  SampleSet s;
  s.Add(1.0);
  s.Add(3.0);
  std::ostringstream os;
  WriteSummaryJson(os, s, "test");
  std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"test\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":2"), std::string::npos);
  EXPECT_NE(out.find("\"mean\":2"), std::string::npos);
}

TEST(ExportTest, CompositionJson) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 100, Ms(0));
  tracer.OnTcpTransmit(0, 100, Ms(10), false);
  std::ostringstream os;
  WriteCompositionJson(os, tracer.MeanComposition());
  EXPECT_NE(os.str().find("\"sender_s\":0.01"), std::string::npos);
}

TEST(ExportTest, FileVariantsWriteAndFail) {
  TimeSeries ts;
  ts.Add(Ms(1), 1.0);
  std::string path = "/tmp/element_export_test.csv";
  ASSERT_TRUE(WriteTimeSeriesCsvFile(path, ts, "v"));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "t_seconds,v");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTimeSeriesCsvFile("/nonexistent_dir_xyz/file.csv", ts, "v"));
}

TEST(IdleRestartTest, CwndDecaysAcrossIdlePeriod) {
  PathConfig path;
  path.rate = DataRate::Mbps(50);
  Testbed bed(31, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  SinkApp reader(flow.receiver);
  reader.Start();
  // Phase 1: a 4 MB transfer grows cwnd (pumped through writable callbacks).
  uint64_t target = 4 << 20;
  auto pump = [&] {
    while (flow.sender->app_bytes_written() < target) {
      if (flow.sender->Write(target - flow.sender->app_bytes_written()) == 0) {
        break;
      }
    }
  };
  flow.sender->SetWritableCallback(pump);
  flow.sender->SetEstablishedCallback(pump);
  bed.loop().RunUntil(Sec(5.0));
  ASSERT_EQ(flow.receiver->app_bytes_read(), 4u << 20);
  uint32_t grown = flow.sender->GetTcpInfo().tcpi_snd_cwnd;
  EXPECT_GT(grown, 30u);
  // Phase 2: 3 s of silence, then a new burst: cwnd must have been validated
  // down before the new data bursts out.
  bed.loop().RunUntil(Sec(8.0));
  target += 1 << 20;
  pump();
  uint32_t after_idle = flow.sender->GetTcpInfo().tcpi_snd_cwnd;
  EXPECT_LT(after_idle, grown / 2 + 1);
  // The transfer still completes.
  bed.loop().RunUntil(Sec(15.0));
  EXPECT_EQ(flow.receiver->app_bytes_read(), (4u << 20) + (1u << 20));
}

TEST(IdleRestartTest, NoDecayWithoutIdle) {
  PathConfig path;
  path.rate = DataRate::Mbps(50);
  Testbed bed(32, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(5.0));
  uint32_t w1 = flow.sender->GetTcpInfo().tcpi_snd_cwnd;
  bed.loop().RunUntil(Sec(10.0));
  uint32_t w2 = flow.sender->GetTcpInfo().tcpi_snd_cwnd;
  // Continuously busy: no halvings (cwnd stays in the same band).
  EXPECT_GT(w2, w1 / 2);
}

}  // namespace
}  // namespace element
