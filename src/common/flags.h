// Minimal command-line flag parser for the example/CLI binaries:
// `--name value` and `--name=value` forms, typed getters with defaults, and
// leftover positional arguments.

#ifndef ELEMENT_SRC_COMMON_FLAGS_H_
#define ELEMENT_SRC_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace element {

class Flags {
 public:
  // Parses argv; returns false (and sets error()) on a malformed flag
  // (missing value at end of line).
  bool Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string GetString(const std::string& name, const std::string& def = "") const;
  double GetDouble(const std::string& name, double def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  // A bare `--name` (no value) or `--name true|1` is true.
  bool GetBool(const std::string& name, bool def = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Names seen during parsing but never read by a Get*: typo detection.
  std::vector<std::string> UnusedFlags() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

// Worker-count default for parallel drivers: the ELEMENT_JOBS environment
// variable when set to a positive integer, else hardware_concurrency()
// (minimum 1 when the runtime reports 0).
int DefaultJobs();

// The standard fleet-runner flag set, shared by `element_fleet` and any other
// sweep-driving binary.
struct RunnerFlags {
  int jobs = 1;               // --jobs, ELEMENT_JOBS env fallback, DefaultJobs()
  uint64_t seed_offset = 0;   // --seed, added to every expanded scenario seed
  std::string out;            // --out, results JSON path ("" = stdout)
  std::string scenarios;      // --scenarios, suite spec path
};
RunnerFlags ParseRunnerFlags(const Flags& flags);

}  // namespace element

#endif  // ELEMENT_SRC_COMMON_FLAGS_H_
