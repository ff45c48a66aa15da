#include "src/gadget/gadget.h"

namespace fixture {

int RunGadget(const GadgetConfig& config) {
  return config.nothing_sets + config.only_tests_set + config.bench_sets +
         config.perfbench_sets + config.waived + config.period + config.dial.period +
         config.dial.depth;
}

}  // namespace fixture
