#include "bench/harness.h"

#include <cstdio>

#include "src/common/check.h"

namespace element {

std::vector<FlowResult> LegacyFlows(const ScenarioSpec& spec) {
  ScenarioResult result = ExecuteScenario(spec);
  ELEMENT_CHECK(result.ok) << spec.name << ": " << result.error;
  return result.flows;
}

const std::vector<double> kCdfQuantiles = {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99};

MeanDelays AverageDelays(const std::vector<FlowResult>& flows) {
  MeanDelays out;
  if (flows.empty()) {
    return out;
  }
  for (const FlowResult& f : flows) {
    out.sender_s += f.sender_delay_s / static_cast<double>(flows.size());
    out.network_s += f.network_delay_s / static_cast<double>(flows.size());
    out.receiver_s += f.receiver_delay_s / static_cast<double>(flows.size());
  }
  return out;
}

void AddDelayCompositionRow(TablePrinter* table, const std::string& network,
                            const std::string& qdisc, const MeanDelays& delays) {
  table->AddRow({network, qdisc, TablePrinter::Fmt(delays.sender_s * 1000, 1),
                 TablePrinter::Fmt(delays.network_s * 1000, 1),
                 TablePrinter::Fmt(delays.receiver_s * 1000, 1),
                 TablePrinter::Fmt(delays.total_s() * 1000, 1)});
}

void AddAccuracyRows(TablePrinter* table, const std::string& name, const AccuracyRun& run) {
  table->AddRow({name, "sender", TablePrinter::Fmt(run.sender.errors.Quantile(0.5), 4),
                 TablePrinter::Fmt(run.sender.errors.Quantile(0.9), 4),
                 TablePrinter::Fmt(run.sender.errors.Quantile(0.99), 4),
                 TablePrinter::Fmt(run.sender.accuracy * 100, 1) + "%"});
  table->AddRow({"", "receiver", TablePrinter::Fmt(run.receiver.errors.Quantile(0.5), 4),
                 TablePrinter::Fmt(run.receiver.errors.Quantile(0.9), 4),
                 TablePrinter::Fmt(run.receiver.errors.Quantile(0.99), 4),
                 TablePrinter::Fmt(run.receiver.accuracy * 100, 1) + "%"});
}

void PrintErrorCdfRows(const AccuracyRun& run, const std::string& sender_label,
                       const std::string& receiver_label) {
  std::printf("%s", run.sender.errors.CdfRows(kCdfQuantiles, sender_label).c_str());
  std::printf("%s", run.receiver.errors.CdfRows(kCdfQuantiles, receiver_label).c_str());
}

}  // namespace element
