#include "src/trace/export.h"

#include <fstream>
#include <iomanip>

namespace element {

void WriteTimeSeriesCsv(std::ostream& os, const TimeSeries& series,
                        const std::string& value_name) {
  os << "t_seconds," << value_name << "\n";
  os << std::setprecision(9);
  for (const TimeSeries::Point& p : series.points()) {
    os << p.t.ToSeconds() << "," << p.v << "\n";
  }
}

void WriteCdfCsv(std::ostream& os, const SampleSet& samples,
                 const std::vector<double>& quantiles, const std::string& value_name) {
  os << "quantile," << value_name << "\n";
  os << std::setprecision(9);
  for (double q : quantiles) {
    os << q << "," << samples.Quantile(q) << "\n";
  }
}

bool WriteTimeSeriesCsvFile(const std::string& path, const TimeSeries& series,
                            const std::string& value_name) {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  WriteTimeSeriesCsv(f, series, value_name);
  return static_cast<bool>(f);
}

bool WriteCdfCsvFile(const std::string& path, const SampleSet& samples,
                     const std::vector<double>& quantiles, const std::string& value_name) {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  WriteCdfCsv(f, samples, quantiles, value_name);
  return static_cast<bool>(f);
}

}  // namespace element
