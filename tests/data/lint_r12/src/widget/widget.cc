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

}  // namespace fixture
