#include "src/widget/widget.h"

int main() {
  fixture::Widget widget;
  widget.Run();
  int (fixture::Widget::*get)() const = &fixture::Widget::ByMemberPointer;
  int ShadowedByLocal = (widget.*get)();
  auto* any = &widget;
  any->Pause();
  fixture::TheWidget().Resume();
  const fixture::Widget& view = widget;
  return ShadowedByLocal == 7 && view.Level() == 0 ? 0 : 1;
}
