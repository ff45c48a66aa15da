// Deterministic random number generator used throughout the simulator.
//
// Every experiment takes an explicit seed so that runs are reproducible;
// components that need independent streams Fork() a child generator.
//
// A stream costs nothing until its first draw: Rng holds only its seed, and
// the first draw (a Fork() included, which draws from the parent) seeds a
// std::mt19937_64 kept off the object. Most streams in a multi-flow run are
// never drawn (a sender socket's, a lossless pipe's), so they never pay the
// engine's 2.5 KB or its 312-word seeding loop. The sequence a stream yields
// is the one an eagerly seeded std::mt19937_64(seed) would yield. Rng is
// move-only; a moved-from Rng must not be drawn again.
//
// Rng is NOT thread-safe: every draw mutates the engine state, and concurrent
// draws would both race and destroy reproducibility. Parallel drivers (the
// src/runner/ fleet) must give each worker its own generator derived from the
// scenario seed — fork per unit of work, never share an instance across
// threads.

#ifndef ELEMENT_SRC_COMMON_RNG_H_
#define ELEMENT_SRC_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>

#include "src/common/check.h"

namespace element {

class Rng {
 public:
  explicit Rng(uint64_t seed) : seed_(seed) {}

  // Independent child stream derived from this generator's state.
  Rng Fork() { return Rng(engine()()); }

  double Uniform() {  // [0, 1)
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine());
  }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  int64_t UniformInt(int64_t lo, int64_t hi) {  // inclusive range
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine());
  }
  bool Bernoulli(double p) { return Uniform() < p; }
  double Exponential(double mean) {
    ELEMENT_DCHECK(mean > 0.0) << "Exponential() needs a positive mean, got " << mean;
    return std::exponential_distribution<double>(1.0 / mean)(engine());
  }
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine());
  }
  double Pareto(double scale, double shape) {
    ELEMENT_DCHECK(shape > 0.0) << "Pareto() needs a positive shape, got " << shape;
    // Uniform() draws from [0, 1), but uniform_real_distribution may round up
    // to exactly 1.0 (LWG 2524), which would divide by pow(0, 1/shape) = 0.
    // Clamp the survival probability away from zero; the clamp caps the tail
    // at scale * 1e12^(1/shape), far beyond any simulated delay.
    double survival = 1.0 - Uniform();
    if (survival < 1e-12) {
      survival = 1e-12;
    }
    return scale / std::pow(survival, 1.0 / shape);
  }

 private:
  std::mt19937_64& engine() {
    if (engine_ == nullptr) {
      engine_ = std::make_unique<std::mt19937_64>(seed_);
    }
    return *engine_;
  }

  uint64_t seed_;
  std::unique_ptr<std::mt19937_64> engine_;  // null until the first draw
};

}  // namespace element

#endif  // ELEMENT_SRC_COMMON_RNG_H_
