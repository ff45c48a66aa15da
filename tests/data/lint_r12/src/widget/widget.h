// R12 fixture: each public member of Widget is reached, or not, the way its
// name says. tests/CMakeLists.txt (lint_sim_r12_fixture) lints this tree and
// compares the findings with expected.txt.

#ifndef LINT_R12_WIDGET_H_
#define LINT_R12_WIDGET_H_

namespace fixture {

class Widget {
 public:
  void Run();
  int NothingCalls() const;
  int OnlyTestsCall() const;
  int Waived() const { return 1; }  // lint_sim: allow(test-only) -- observer
  int OwnModuleCalls() const;
  int WaivedWithoutReason() const { return 2; }  // lint_sim: allow(test-only)
  int ShadowedByLocal() const;
  int ByMemberPointer() const { return 7; }

 private:
  int PrivateHelper() const;
  int calls_ = 0;
};

}  // namespace fixture

#endif  // LINT_R12_WIDGET_H_
