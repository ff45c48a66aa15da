#include "src/element/interposer.h"

#include <utility>

namespace element {

namespace {

std::unique_ptr<ElementSocket> MakeInterposed(EventLoop* loop, TcpSocket* socket,
                                              bool is_wireless, const MinimizerParams& params) {
  ElementSocket::Options options;
  options.is_wireless = is_wireless;
  options.enable_latency_minimization = true;
  options.minimizer = params;
  return std::make_unique<ElementSocket>(loop, socket, options);
}

}  // namespace

size_t ElementSink::Write(size_t n) {
  size_t total = 0;
  while (total < n) {
    RetInfo info = em_->Send(n - total);
    if (info.size <= 0) {
      break;
    }
    total += static_cast<size_t>(info.size);
  }
  return total;
}

void ElementSink::SetWritableCallback(std::function<void()> cb) {
  em_->SetReadyToSendCallback(std::move(cb));
}

InterposedSink::InterposedSink(EventLoop* loop, TcpSocket* socket, bool is_wireless,
                               const MinimizerParams& params)
    : InterposedSink(MakeInterposed(loop, socket, is_wireless, params)) {}

InterposedSink::InterposedSink(std::unique_ptr<ElementSocket> em)
    : ElementSink(em.get()), owned_(std::move(em)) {}

}  // namespace element
