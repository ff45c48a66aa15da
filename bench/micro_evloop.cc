// Event-core microbenchmark: the numbers behind BENCH_evloop.json and the
// CI perf-smoke floor.
//
// Three workloads, each reported as a rate:
//   schedule_fire  — arm 65,536 timers at ascending times, each re-arming
//                    itself from its callback 16 times (1,048,576 fires from
//                    a heap 8 levels deep), and run the loop dry: the pure
//                    fire-path cost, fire plus re-arm to the bottom of the
//                    heap. The timers are made before the clock starts.
//   handoff        — 512 far-future timers stay pending (about the heap of
//                    a 128-flow dumbbell) while a ring of 64 timers runs
//                    2M fires, each callback arming the next, idle timer of
//                    the ring and leaving its own un-armed: the shape of a
//                    delivery that wakes a socket, which transmits. The
//                    armed timer takes the fired one's root slot.
//   churn          — the TCP RTO re-arm pattern: keep one far-future timer
//                    pending and Restart it 2M times, with a trickle of near
//                    fires so the clock advances, then drain. Each Restart
//                    re-keys the timer's heap entry in place.
//   tcp_codel      — a full TCP-over-CoDel bulk transfer (Testbed, cubic,
//                    10 Mbps bottleneck) for 30 simulated seconds; reports
//                    both events/sec and sim-seconds per wall-second.
//   sack_recovery  — one cubic flow on a long, lossy path (100 Mbps, 100 ms
//                    RTT, 0.01% wire loss, a 2000-packet drop-tail queue,
//                    16 MB send buffer) for 30 simulated seconds: queue
//                    overflows and wire losses put SACK recovery in windows
//                    of hundreds to thousands of segments. Reports the ACKs
//                    the sender processes per wall-second, which falls with
//                    the window if the scoreboard walks it on every ACK.
//
// Usage:
//   micro_evloop                      print a JSON metrics object
//   micro_evloop --floor <file.json>  also enforce min_* floors from the file
//                                     (exit 1 on a regression below a floor or
//                                     a floor key missing from the file)

#include <cstdint>
#include <cstdio>
#include <deque>
#include <vector>

#include "src/common/time.h"
#include "src/evloop/event_loop.h"
#include "src/common/json.h"
#include "src/tcpsim/testbed.h"

#include "bench/micro_floor.h"

namespace element {
namespace {

constexpr int kScheduleFireTimers = 65'536;
constexpr int kScheduleFireRounds = 16;
constexpr uint64_t kScheduleFireEvents =
    static_cast<uint64_t>(kScheduleFireTimers) * kScheduleFireRounds;
constexpr int kHandoffBackground = 512;
constexpr int kHandoffRing = 64;
constexpr uint64_t kHandoffFires = 2'000'000;
constexpr int kChurnOps = 2'000'000;
constexpr double kTcpCodelSimSeconds = 30.0;
constexpr double kSackRecoverySimSeconds = 30.0;

// One schedule_fire timer: fires kScheduleFireRounds times, one round of
// kScheduleFireTimers ns apart, so every re-arm lands behind every other
// timer's next fire.
class RoundTimer {
 public:
  RoundTimer(EventLoop* loop, uint64_t* fires) : fires_(fires), timer_(loop, [this] { Fire(); }) {}
  void Arm(SimTime at) { timer_.Restart(at); }

 private:
  void Fire() {
    ++*fires_;
    if (++rounds_ < kScheduleFireRounds) {
      timer_.RestartAfter(TimeDelta::FromNanos(kScheduleFireTimers));
    }
  }

  uint64_t* fires_;
  int rounds_ = 0;
  Timer timer_;
};

double BenchScheduleFire() {
  EventLoop loop;
  uint64_t sink = 0;
  std::deque<RoundTimer> timers;
  for (int i = 0; i < kScheduleFireTimers; ++i) {
    timers.emplace_back(&loop, &sink);
  }
  double secs = Timed([&] {
    for (int i = 0; i < kScheduleFireTimers; ++i) {
      timers[static_cast<size_t>(i)].Arm(SimTime::FromNanos(i));
    }
    loop.Run();
  });
  if (sink != kScheduleFireEvents) {
    std::fprintf(stderr, "schedule_fire dropped events: %llu\n",
                 static_cast<unsigned long long>(sink));
    std::exit(1);
  }
  return static_cast<double>(kScheduleFireEvents) / secs;
}

double BenchHandoff() {
  EventLoop loop;
  std::deque<Timer> background;
  for (int i = 0; i < kHandoffBackground; ++i) {
    background.emplace_back(&loop, [] {});
    background.back().Restart(SimTime::Zero() + TimeDelta::FromSecondsInt(3600) +
                              TimeDelta::FromNanos(i));
  }
  uint64_t fires = 0;
  std::deque<Timer> ring;
  for (int i = 0; i < kHandoffRing; ++i) {
    ring.emplace_back(&loop, [&fires, &ring, i] {
      if (++fires < kHandoffFires) {
        ring[static_cast<size_t>((i + 1) % kHandoffRing)].RestartAfter(TimeDelta::FromNanos(1));
      }
    });
  }
  double secs = Timed([&] {
    ring.front().Restart(SimTime::Zero());
    loop.RunUntil(SimTime::Zero() + TimeDelta::FromSecondsInt(1));
  });
  if (fires != kHandoffFires || loop.pending_events() != kHandoffBackground) {
    std::fprintf(stderr, "handoff lost fires: %llu\n", static_cast<unsigned long long>(fires));
    std::exit(1);
  }
  return static_cast<double>(kHandoffFires) / secs;
}

double BenchChurn() {
  EventLoop loop;
  uint64_t sink = 0;
  // One re-armed far-future timeout (the RTO) plus a trickle of near fires,
  // one timer each, so the clock advances, as a transfer's ACK stream does.
  Timer rto(&loop, [&sink] { ++sink; });
  std::deque<Timer> near;
  for (int i = 0; i < kChurnOps; i += 1024) {
    near.emplace_back(&loop, [&sink] { ++sink; });
  }
  double secs = Timed([&] {
    rto.RestartAfter(TimeDelta::FromSecondsInt(60));
    for (int i = 0; i < kChurnOps; ++i) {
      rto.RestartAfter(TimeDelta::FromSecondsInt(60) + TimeDelta::FromNanos(i));
      if ((i & 1023) == 0) {
        near[static_cast<size_t>(i >> 10)].RestartAfter(TimeDelta::FromNanos(i));
        loop.RunUntil(loop.now() + TimeDelta::FromNanos(1));
      }
    }
    loop.Run();
  });
  return kChurnOps / secs;
}

struct TcpCodelResult {
  double events_per_sec = 0.0;
  double sim_seconds_per_sec = 0.0;
};

TcpCodelResult BenchTcpCodel() {
  PathConfig path;
  path.qdisc = QdiscType::kCoDel;
  path.rate = DataRate::Mbps(10);
  path.one_way_delay = TimeDelta::FromMillis(25);
  Testbed bed(/*seed=*/7, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  auto pump = [&] {
    while (flow.sender->Write(1 << 20) > 0) {
    }
  };
  flow.sender->SetEstablishedCallback(pump);
  flow.sender->SetWritableCallback(pump);
  flow.receiver->SetReadableCallback([&] { flow.receiver->Read(1 << 20); });

  double secs = Timed([&] {
    bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(kTcpCodelSimSeconds * 1e9)));
  });
  TcpCodelResult r;
  r.events_per_sec = static_cast<double>(bed.loop().processed_events()) / secs;
  r.sim_seconds_per_sec = kTcpCodelSimSeconds / secs;
  return r;
}

double BenchSackRecovery() {
  PathConfig path;
  path.rate = DataRate::Mbps(100);
  path.one_way_delay = TimeDelta::FromMillis(50);
  path.queue_limit_packets = 2000;
  path.loss_probability = 0.0001;
  Testbed bed(/*seed=*/7, path);
  TcpSocket::Config config;
  config.sndbuf_max_bytes = 16 << 20;
  Testbed::Flow flow = bed.CreateFlow(config);
  auto pump = [&] {
    while (flow.sender->Write(1 << 20) > 0) {
    }
  };
  flow.sender->SetEstablishedCallback(pump);
  flow.sender->SetWritableCallback(pump);
  flow.receiver->SetReadableCallback([&] { flow.receiver->Read(1 << 30); });

  double secs = Timed([&] {
    bed.loop().RunUntil(
        SimTime::FromNanos(static_cast<int64_t>(kSackRecoverySimSeconds * 1e9)));
  });
  return static_cast<double>(flow.sender->GetTcpInfo().tcpi_segs_in) / secs;
}

std::vector<FloorCheck> Run() {
  json::Value out = json::Value::Object();
  double fire = BenchScheduleFire();
  double handoff = BenchHandoff();
  double churn = BenchChurn();
  TcpCodelResult tcp = BenchTcpCodel();
  double sack_acks = BenchSackRecovery();
  out.Set("schedule_fire_events_per_sec", json::Value::Number(fire));
  out.Set("handoff_fires_per_sec", json::Value::Number(handoff));
  out.Set("churn_ops_per_sec", json::Value::Number(churn));
  out.Set("tcp_codel_events_per_sec", json::Value::Number(tcp.events_per_sec));
  out.Set("tcp_codel_sim_seconds_per_sec", json::Value::Number(tcp.sim_seconds_per_sec));
  out.Set("sack_recovery_acks_per_sec", json::Value::Number(sack_acks));
  std::printf("%s\n", out.Dump(2).c_str());

  return {{"min_schedule_fire_events_per_sec", fire},
          {"min_churn_ops_per_sec", churn},
          {"min_tcp_codel_events_per_sec", tcp.events_per_sec},
          {"min_sack_recovery_acks_per_sec", sack_acks}};
}

}  // namespace
}  // namespace element

int main(int argc, char** argv) {
  return element::MicroBenchMain("micro_evloop", argc, argv, element::Run);
}
