#include "src/gadget/scenario.h"

#include <cstring>

namespace fixture {

namespace {

struct Field {
  const char* key;
  int ScenarioSpec::*member;
};

constexpr Field kFields[] = {
    {"suite_sets", &ScenarioSpec::suite_sets},
    {"only_the_table_names", &ScenarioSpec::only_the_table_names},
};

}  // namespace

bool SetScenarioField(const char* key, int value, ScenarioSpec* spec) {
  for (const Field& field : kFields) {
    if (std::strcmp(key, field.key) == 0) {
      spec->*field.member = value;
      return true;
    }
  }
  return false;
}

}  // namespace fixture
