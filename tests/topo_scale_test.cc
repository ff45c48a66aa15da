// Scale test for the topology subsystem (slow label, excluded from tier-1):
// >= 1k concurrent flows through one dumbbell bottleneck with a byte-identical
// run-twice aggregate.

#include <gtest/gtest.h>

#include <vector>

#include "src/runner/fleet.h"

namespace element {
namespace {

TEST(TopoScaleTest, ThousandFlowDumbbellIsDeterministic) {
  ScenarioSpec spec;
  spec.name = "dumbbell_1k";
  spec.topology = "dumbbell";
  spec.num_flows = 1024;  // one host pair each
  spec.rate_mbps = 200.0;
  spec.rtt_ms = 20.0;
  spec.qdisc = "fq_codel";
  spec.duration_s = 3.0;
  spec.warmup_s = 0.5;
  spec.seed = 9;

  ScenarioResult first = ExecuteScenario(spec);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(first.flows.size(), 1024u);
  EXPECT_TRUE(first.has_topology);
  EXPECT_EQ(first.unroutable_packets, 0u);
  EXPECT_GT(first.metrics.StatsOrEmpty("goodput_mbps").mean(), 0.0);

  ScenarioResult second = ExecuteScenario(spec);
  ASSERT_TRUE(second.ok) << second.error;
  // Byte-identical deterministic rows, not just close numbers.
  EXPECT_EQ(ResultRowJson(first).Dump(), ResultRowJson(second).Dump());
  std::vector<ScenarioResult> fleet_a;
  fleet_a.push_back(std::move(first));
  std::vector<ScenarioResult> fleet_b;
  fleet_b.push_back(std::move(second));
  EXPECT_EQ(AggregateResults(fleet_a).ToJson().Dump(), AggregateResults(fleet_b).ToJson().Dump());
}

}  // namespace
}  // namespace element
