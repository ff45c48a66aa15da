// R10 fixture: a suite parser fills ScenarioSpec through a table of member
// pointers. The table names both fields; only scenarios/gadget.json sets one.

#ifndef LINT_R10_SCENARIO_H_
#define LINT_R10_SCENARIO_H_

namespace fixture {

struct ScenarioSpec {
  int suite_sets = 0;
  int only_the_table_names = 0;
};

// Sets the field named `key`; false when no field has that name.
bool SetScenarioField(const char* key, int value, ScenarioSpec* spec);

}  // namespace fixture

#endif  // LINT_R10_SCENARIO_H_
