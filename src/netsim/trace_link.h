// Bandwidth traces: a recorded (time, rate) series, replayed on a link the
// way Sprout's and Verus's evaluations replay Verizon/T-Mobile cellular
// traces. Traces load from CSV ("t_seconds,mbps" rows), or a generator
// synthesizes cellular-like ones for tests and benches that have no recorded
// data (see DESIGN.md's substitution table); ScheduleFromTrace turns either
// into the steps of a ScheduledLinkModel, which is what PathConfig::steps
// carries.

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

// Parses "t_seconds,mbps" CSV rows (header line optional; '#' comments
// skipped). Returns an empty vector on malformed input: a row that is not
// two numbers, a negative time or one past int64 nanoseconds, a negative or
// non-finite rate, or times out of order.
std::vector<TracePoint> ParseTraceCsv(const std::string& csv_text);
// ParseTraceCsv on a file's contents; empty if the file cannot be read.
std::vector<TracePoint> LoadTraceCsvFile(const std::string& path);

// Synthesizes a cellular-like trace: a mean-reverting random walk in
// log-rate, sampled every `step` for `duration`.
std::vector<TracePoint> SynthesizeCellularTrace(Rng* rng, DataRate mean_rate,
                                                TimeDelta duration,
                                                TimeDelta step = TimeDelta::FromMillis(100),
                                                double volatility = 0.15);

// The link schedule that replays a non-empty, time-ordered trace: the first
// point's rate holds from time 0, each point's rate holds until the next
// point, and the last point marks where the trace loops. A trace that spans
// no time holds its last point's rate.
std::vector<ScheduledLinkModel::Step> ScheduleFromTrace(const std::vector<TracePoint>& trace);

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_TRACE_LINK_H_
