// R10 fixture: each field of GadgetConfig is set, or not, where its name
// says. tests/CMakeLists.txt (lint_sim_r10_fixture) lints this tree and
// compares the findings with expected.txt.

#ifndef LINT_R10_GADGET_H_
#define LINT_R10_GADGET_H_

namespace fixture {

struct DialOptions {
  int period = 0;
  int depth = 0;
};

struct GadgetConfig {
  int nothing_sets = 0;
  int only_tests_set = 0;
  int bench_sets = 0;
  int perfbench_sets = 0;
  int waived = 0;  // lint_sim: allow(unset-knob)
  // Only DialOptions::period, a field of the same name, is ever set.
  int period = 0;
  // Set by config.dial.period and config.dial.depth, which also set
  // DialOptions' fields: the lint follows dial to its type.
  DialOptions dial;
};

int RunGadget(const GadgetConfig& config);

}  // namespace fixture

#endif  // LINT_R10_GADGET_H_
