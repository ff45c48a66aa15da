#include "src/gadget/gadget.h"

int main() {
  fixture::GadgetConfig config;
  config.only_tests_set = 1;
  return fixture::RunGadget(config) == 1 ? 0 : 1;
}
