// R12 fixture: each public member of Widget is reached, or not, the way its
// name says. tests/CMakeLists.txt (lint_sim_r12_fixture) lints this tree and
// compares the findings with expected.txt.

#ifndef LINT_R12_WIDGET_H_
#define LINT_R12_WIDGET_H_

namespace fixture {

class Gizmo {
 public:
  void Halt();
  void Pause();
  void Resume();
  int Level() const;
  void Tune();
};

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
  // Each calls the Gizmo member of its name through gizmo_. Nothing else
  // calls Halt; bench/ calls Pause through `auto`, Resume through a call
  // result and Level through a Widget&.
  void Halt();
  void Pause();
  void Resume();
  int Level() const;
  // bench/ calls Gizmo's Tune through a Rig's gizmo, one field step away,
  // and Calibrate through a Rig pointer's widget.
  void Tune();
  void Calibrate();

 private:
  int PrivateHelper() const;
  int calls_ = 0;
  Gizmo gizmo_;
};

// The parts bench/ reaches one field step from a variable.
struct Rig {
  Gizmo gizmo;
  Widget* widget = nullptr;
};

Widget& TheWidget();

}  // namespace fixture

#endif  // LINT_R12_WIDGET_H_
