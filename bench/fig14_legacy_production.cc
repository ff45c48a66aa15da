// Figure 14: ELEMENT with legacy iperf on four production networks — LAN,
// cable, LTE, WiFi — in both directions (download/upload). Two Cubic flows
// run; one is replaced by Cubic+ELEMENT.
//
// Expected shape: little to gain on the LAN (sub-ms RTT); elsewhere 4-10x
// relative-delay reduction with throughput maintained or slightly improved.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace element;

int main() {
  std::printf("=== Figure 14: legacy iperf +/- ELEMENT on production networks ===\n");
  std::printf("Setup: 2 Cubic flows, flow 0 optionally interposed; 40 s per run\n\n");

  struct Cell {
    const char* network;
    const char* direction;
    const char* profile;
    const char* element_mode;  // wireless networks use Algorithm 3's LTE/WiFi mode
  };
  const Cell cells[] = {
      {"LAN", "Download", "lan", "first"},
      {"Cable", "Download", "cable", "first"},
      {"Cable", "Upload", "cable_up", "first"},
      {"LTE", "Download", "lte", "wireless"},
      {"LTE", "Upload", "lte_up", "wireless"},
      {"WiFi", "Download", "wifi", "wireless"},
      {"WiFi", "Upload", "wifi", "wireless"},
  };

  TablePrinter table({"network", "dir", "cubic avg delay(s)", "elem delay(s)", "reduction",
                      "cubic avg tput", "elem tput"});
  bool shape_ok = true;
  double best_nonlan_reduction = 0.0;
  uint64_t seed = 800;
  for (const Cell& cell : cells) {
    ScenarioSpec spec;
    spec.profile = cell.profile;
    spec.num_flows = 2;
    spec.duration_s = 40.0;
    spec.seed = seed++;
    std::vector<FlowResult> plain = LegacyFlows(spec);
    spec.element_mode = cell.element_mode;
    std::vector<FlowResult> with_em = LegacyFlows(spec);

    // Baseline = average plain Cubic flow (single-run fairness noise).
    double plain_delay = (plain[0].relative_delay_s + plain[1].relative_delay_s) / 2;
    double plain_tput = (plain[0].goodput_mbps + plain[1].goodput_mbps) / 2;
    double reduction = plain_delay / std::max(with_em[0].relative_delay_s, 1e-4);
    table.AddRow({cell.network, cell.direction, TablePrinter::Fmt(plain_delay, 3),
                  TablePrinter::Fmt(with_em[0].relative_delay_s, 3),
                  TablePrinter::Fmt(reduction, 1) + "x",
                  TablePrinter::Fmt(plain_tput, 2),
                  TablePrinter::Fmt(with_em[0].goodput_mbps, 2)});

    bool is_lan = std::string(cell.network) == "LAN";
    if (!is_lan) {
      best_nonlan_reduction = std::max(best_nonlan_reduction, reduction);
      if (reduction < 1.0) {
        shape_ok = false;
      }
      if (with_em[0].goodput_mbps < plain_tput * 0.70) {
        shape_ok = false;
      }
    }
  }
  std::printf("%s\n", table.Render().c_str());
  if (best_nonlan_reduction < 3.0) {
    shape_ok = false;
  }
  std::printf("Paper shape check: LAN barely changes (RTT already tiny); cable/LTE/WiFi see\n"
              "4-10x delay reduction at equal or better throughput.\nSHAPE %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
