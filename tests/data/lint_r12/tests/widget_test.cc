#include "src/widget/widget.h"

int main() {
  fixture::Widget widget;
  return widget.OnlyTestsCall() == 4 ? 0 : 1;
}
