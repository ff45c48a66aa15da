// Export helpers: write time series and sample-set CDFs to CSV so external
// tooling (gnuplot, pandas, ...) can consume the experiment outputs the bench
// binaries print.

#ifndef ELEMENT_SRC_TRACE_EXPORT_H_
#define ELEMENT_SRC_TRACE_EXPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace element {

// (t_seconds, value) rows with a header.
void WriteTimeSeriesCsv(std::ostream& os, const TimeSeries& series,
                        const std::string& value_name);

// (quantile, value) rows for a CDF at the given quantiles.
void WriteCdfCsv(std::ostream& os, const SampleSet& samples,
                 const std::vector<double>& quantiles, const std::string& value_name);

// Convenience file variants; return false on I/O failure.
bool WriteTimeSeriesCsvFile(const std::string& path, const TimeSeries& series,
                            const std::string& value_name);
bool WriteCdfCsvFile(const std::string& path, const SampleSet& samples,
                     const std::vector<double>& quantiles, const std::string& value_name);

}  // namespace element

#endif  // ELEMENT_SRC_TRACE_EXPORT_H_
