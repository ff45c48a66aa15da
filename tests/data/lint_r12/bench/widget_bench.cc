#include "src/widget/widget.h"

int main() {
  fixture::Widget widget;
  widget.Run();
  int (fixture::Widget::*get)() const = &fixture::Widget::ByMemberPointer;
  int ShadowedByLocal = (widget.*get)();
  auto* any = &widget;
  any->Pause();
  fixture::TheWidget().Resume();
  fixture::Rig rig;
  rig.gizmo.Tune();
  fixture::Rig* rig_ptr = &rig;
  rig_ptr->widget = &widget;
  rig_ptr->widget->Calibrate();
  const fixture::Widget& view = widget;
  return ShadowedByLocal == 7 && view.Level() == 0 ? 0 : 1;
}
