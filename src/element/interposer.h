// ByteSinks that route an application's writes through ELEMENT.
//
// ElementSink writes through an existing ElementSocket's em_send, so the
// sender-side estimator sees every write; the accuracy experiments use it
// with minimization off. InterposedSink is the transparent legacy-application
// integration — the simulation analogue of preloading ELEMENT's shared
// library with LD_PRELOAD (Section 4.5): a legacy app that writes through a
// ByteSink is handed an InterposedSink instead of a RawTcpSink; its code is
// unchanged, but every write now flows through ELEMENT's measurement and
// latency-minimization algorithm (Algorithm 3).

#ifndef ELEMENT_SRC_ELEMENT_INTERPOSER_H_
#define ELEMENT_SRC_ELEMENT_INTERPOSER_H_

#include <memory>

#include "src/element/byte_sink.h"
#include "src/element/element_socket.h"

namespace element {

class ElementSink : public ByteSink {
 public:
  explicit ElementSink(ElementSocket* em) : em_(em) {}

  // em_send admits at most one segment per call under pacing; Write loops
  // until the gate closes or the buffer fills, so legacy apps that issue
  // large writes still see ordinary short-write semantics.
  size_t Write(size_t n) override;
  void SetWritableCallback(std::function<void()> cb) override;
  TcpSocket* socket() override { return em_->socket(); }

  ElementSocket& element() { return *em_; }

 private:
  ElementSocket* em_;
};

class InterposedSink : public ElementSink {
 public:
  InterposedSink(EventLoop* loop, TcpSocket* socket, bool is_wireless = false,
                 const MinimizerParams& params = MinimizerParams());

 private:
  explicit InterposedSink(std::unique_ptr<ElementSocket> em);

  std::unique_ptr<ElementSocket> owned_;
};

}  // namespace element

#endif  // ELEMENT_SRC_ELEMENT_INTERPOSER_H_
