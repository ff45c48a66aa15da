#include "src/gadget/gadget.h"

int main() {
  fixture::GadgetConfig config;
  config.bench_sets = 2;
  return fixture::RunGadget(config) == 2 ? 0 : 1;
}
