#include "src/widget/widget.h"

int main() {
  fixture::Widget widget;
  widget.Run();
  int (fixture::Widget::*get)() const = &fixture::Widget::ByMemberPointer;
  int ShadowedByLocal = (widget.*get)();
  return ShadowedByLocal == 7 ? 0 : 1;
}
