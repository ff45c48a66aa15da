// Shared by the micro_* benchmarks: wall-clock timing, and the main that
// prints a bench's metrics and enforces its checked-in floors
// (bench/perf_floor.json) for the perf-smoke and topo-smoke CI jobs.

#ifndef ELEMENT_BENCH_MICRO_FLOOR_H_
#define ELEMENT_BENCH_MICRO_FLOOR_H_

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace element {

// Runs `body` once and returns wall seconds elapsed.
template <typename Body>
double Timed(Body&& body) {
  auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// One gated metric: the floor file's key and the value just measured.
struct FloorCheck {
  const char* key;
  double measured;
};

// `bench [--floor floors.json]`. `run` measures, prints the metrics as JSON
// and returns its gated metrics. With --floor, each one must reach the
// file's value for its key. Exit status: 0 pass; 1 a metric below its floor
// or a key missing from the file (named on stderr); 2 bad usage or an
// unreadable floor file.
inline int MicroBenchMain(const char* bench, int argc, char** argv,
                          std::vector<FloorCheck> (*run)()) {
  std::string floor_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--floor" && i + 1 < argc) {
      floor_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--floor floors.json]\n", argv[0]);
      return 2;
    }
  }
  std::vector<FloorCheck> checks = run();
  if (floor_path.empty()) {
    return 0;
  }
  std::ifstream in(floor_path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open floor file %s\n", bench, floor_path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  json::Value floor;
  std::string error;
  if (!json::Value::Parse(buf.str(), &floor, &error)) {
    std::fprintf(stderr, "%s: bad floor file: %s\n", bench, error.c_str());
    return 2;
  }
  int failures = 0;
  for (const FloorCheck& check : checks) {
    const json::Value* min = floor.Find(check.key);
    if (min == nullptr) {
      std::fprintf(stderr, "%s: floor key %s missing from %s\n", bench, check.key,
                   floor_path.c_str());
      ++failures;
    } else if (check.measured < min->AsDouble()) {
      std::fprintf(stderr, "%s: %s = %.3g below floor %.3g\n", bench, check.key,
                   check.measured, min->AsDouble());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace element

#endif  // ELEMENT_BENCH_MICRO_FLOOR_H_
