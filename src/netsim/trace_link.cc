#include "src/netsim/trace_link.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/check.h"

namespace element {

std::vector<TracePoint> ParseTraceCsv(const std::string& csv_text) {
  // 2^63, the first value past int64's range; a double holds it exactly.
  constexpr double kInt64End = 9223372036854775808.0;
  auto blank = [](const char* p) {
    while (std::isspace(static_cast<unsigned char>(*p))) {
      ++p;
    }
    return *p == '\0';
  };
  std::vector<TracePoint> out;
  std::istringstream in(csv_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return {};
    }
    char* end1 = nullptr;
    char* end2 = nullptr;
    std::string t_str = line.substr(0, comma);
    std::string r_str = line.substr(comma + 1);
    double t = std::strtod(t_str.c_str(), &end1);
    double mbps = std::strtod(r_str.c_str(), &end2);
    if (end1 == t_str.c_str() || end2 == r_str.c_str()) {
      // Tolerate a single header line; anything else is malformed.
      if (out.empty() && t_str.find_first_of("0123456789") == std::string::npos) {
        continue;
      }
      return {};
    }
    // Each number fills its field but for trailing blanks (a CRLF line end);
    // the time is a non-negative count of int64 nanoseconds, the rate finite
    // and non-negative (0 is an outage, which the pipe rides out).
    if (!blank(end1) || !blank(end2) || !(t >= 0.0 && t * 1e9 < kInt64End) ||
        !(mbps >= 0.0 && std::isfinite(mbps))) {
      return {};
    }
    if (!out.empty() && t * 1e9 < static_cast<double>(out.back().at.nanos())) {
      return {};  // not time-ordered
    }
    out.push_back({SimTime::FromNanos(static_cast<int64_t>(t * 1e9)), DataRate::Mbps(mbps)});
  }
  return out;
}

std::vector<TracePoint> LoadTraceCsvFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    return {};
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return ParseTraceCsv(buf.str());
}

std::vector<TracePoint> SynthesizeCellularTrace(Rng* rng, DataRate mean_rate,
                                                TimeDelta duration, TimeDelta step,
                                                double volatility) {
  std::vector<TracePoint> out;
  double log_mean = std::log(mean_rate.bps());
  double x = log_mean;
  for (SimTime t = SimTime::Zero(); t < SimTime::Zero() + duration; t += step) {
    // Ornstein-Uhlenbeck-ish: pull toward the mean, diffuse, clamp 4x band.
    x += 0.1 * (log_mean - x) + rng->Normal(0.0, volatility);
    x = std::clamp(x, log_mean - 1.4, log_mean + 1.4);
    out.push_back({t, DataRate::BitsPerSecond(std::exp(x))});
  }
  return out;
}

std::vector<ScheduledLinkModel::Step> ScheduleFromTrace(const std::vector<TracePoint>& trace) {
  ELEMENT_CHECK(!trace.empty()) << "an empty trace has no schedule";
  std::vector<ScheduledLinkModel::Step> steps;
  steps.reserve(trace.size());
  SimTime from = SimTime::Zero();
  for (size_t i = 0; i + 1 < trace.size(); ++i) {
    steps.push_back({trace[i + 1].at - from, trace[i].rate});
    from = trace[i + 1].at;
  }
  // The last point is a zero-length step at the loop point: it holds only
  // when the whole trace spans no time.
  steps.push_back({TimeDelta::Zero(), trace.back().rate});
  return steps;
}

}  // namespace element
