#include "src/gadget/gadget.h"
#include "src/gadget/scenario.h"

int main() {
  fixture::GadgetConfig config;
  config.bench_sets = 2;
  fixture::ScenarioSpec spec;
  bool known = fixture::SetScenarioField("suite_sets", 4, &spec);
  return known && fixture::RunGadget(config) == 2 ? 0 : 1;
}
