#include "src/gadget/gadget.h"

int main() {
  fixture::GadgetConfig config;
  config.perfbench_sets = 3;
  config.dial.depth = 0;
  return fixture::RunGadget(config) == 3 ? 0 : 1;
}
