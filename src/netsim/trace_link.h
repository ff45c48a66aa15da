// Trace-driven link model: replays a recorded bandwidth trace (time, rate)
// the way Sprout's and Verus's evaluations replay Verizon/T-Mobile cellular
// traces. Traces load from CSV ("t_seconds,mbps" rows) or from an in-memory
// schedule; a generator can synthesize cellular-like traces for tests and
// benches that have no recorded data (see DESIGN.md's substitution table).

#ifndef ELEMENT_SRC_NETSIM_TRACE_LINK_H_
#define ELEMENT_SRC_NETSIM_TRACE_LINK_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/netsim/link_model.h"

namespace element {

struct TracePoint {
  SimTime at;
  DataRate rate;
};

class TraceLinkModel : public LinkModel {
 public:
  // The trace holds the rate constant from each point until the next; it
  // loops when the simulation runs past the end. Points must be
  // time-ordered; an empty trace is a zero-rate link.
  TraceLinkModel(std::vector<TracePoint> trace, TimeDelta prop_delay,
                 double loss_prob = 0.0);

  DataRate RateAt(SimTime now) override;
  TimeDelta PropagationDelay() const override { return prop_delay_; }
  bool DropOnWire(Rng& rng, SimTime now) override;
  std::string name() const override { return "trace"; }

  const std::vector<TracePoint>& trace() const { return trace_; }

  // Parses "t_seconds,mbps" CSV rows (header line optional; '#' comments
  // skipped). Returns an empty vector on malformed input: a row that is not
  // two numbers, a negative time or one past int64 nanoseconds, a negative or
  // non-finite rate, or times out of order.
  static std::vector<TracePoint> ParseCsv(const std::string& csv_text);
  static std::vector<TracePoint> LoadCsvFile(const std::string& path);

  // Synthesizes a cellular-like trace: a mean-reverting random walk in
  // log-rate, sampled every `step` for `duration`.
  static std::vector<TracePoint> SynthesizeCellular(Rng* rng, DataRate mean_rate,
                                                    TimeDelta duration,
                                                    TimeDelta step = TimeDelta::FromMillis(100),
                                                    double volatility = 0.15);

 private:
  std::vector<TracePoint> trace_;
  TimeDelta cycle_;
  TimeDelta prop_delay_;
  double loss_prob_;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_TRACE_LINK_H_
