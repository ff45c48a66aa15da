#include "src/widget/widget.h"

namespace fixture {

void Widget::Run() {
  calls_ += OwnModuleCalls() + PrivateHelper();
}

int Widget::NothingCalls() const {
  return 3;
}

int Widget::OnlyTestsCall() const {
  return 4;
}

int Widget::OwnModuleCalls() const {
  return 5;
}

int Widget::ShadowedByLocal() const {
  return 8;
}

int Widget::PrivateHelper() const {
  return 6;
}

void Widget::Halt() {
  gizmo_.Halt();
}

void Widget::Pause() {
  gizmo_.Pause();
}

void Widget::Resume() {
  gizmo_.Resume();
}

int Widget::Level() const {
  return gizmo_.Level();
}

void Widget::Tune() {
  gizmo_.Tune();
}

void Widget::Calibrate() {
  ++calls_;
}

Widget& TheWidget() {
  static Widget widget;
  return widget;
}

}  // namespace fixture
