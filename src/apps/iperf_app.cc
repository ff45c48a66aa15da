#include "src/apps/iperf_app.h"

namespace element {

IperfApp::IperfApp(EventLoop* loop, ByteSink* sink) : loop_(loop), sink_(sink) {}

void IperfApp::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  sink_->SetWritableCallback([this] { Pump(); });
  TcpSocket* socket = sink_->socket();
  if (socket->established()) {
    Pump();
  } else {
    socket->SetEstablishedCallback([this] { Pump(); });
  }
}

void IperfApp::Pump() {
  if (!sink_->socket()->established()) {
    return;
  }
  // Keep writing until the sink pushes back (full buffer or pacing gate);
  // the writable callback resumes the pump.
  constexpr size_t kWriteChunk = 128 * 1024;
  while (true) {
    if (sink_->Write(kWriteChunk) < kWriteChunk) {
      break;
    }
  }
}

SinkApp::SinkApp(TcpSocket* socket) : socket_(socket) {}

SinkApp::SinkApp(ElementSocket* em) : socket_(em->socket()), em_(em) {}

void SinkApp::Start() {
  if (em_ != nullptr) {
    em_->SetReadableCallback([this] { Drain(); });
  } else {
    socket_->SetReadableCallback([this] { Drain(); });
  }
  Drain();
}

void SinkApp::Drain() {
  constexpr size_t kReadChunk = 64 * 1024;
  while (socket_->ReadableBytes() > 0) {
    if (em_ != nullptr) {
      em_->Read(kReadChunk);
    } else {
      socket_->Read(kReadChunk);
    }
  }
}

}  // namespace element
