#include "src/widget/widget.h"

int main() {
  fixture::Widget widget;
  widget.Run();
  return 0;
}
