// Timing decorators for the traced run. Each one sits at a public seam of the
// simulator (a PacketSink, the tracer's RecordSink, the app's ByteSink or
// read loop), forwards every call unchanged and wraps it in a span. They draw
// no randomness and schedule nothing, so a traced run replays its untraced
// twin event for event.

#ifndef ELEMENT_PERFBENCH_PROBES_H_
#define ELEMENT_PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "perfbench/bench_math.h"
#include "src/element/byte_sink.h"
#include "src/element/element_socket.h"
#include "src/netsim/pipe.h"
#include "src/tcpsim/tcp_socket.h"
#include "src/telemetry/record.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, Layer layer) : rec_(rec) { rec_->Begin(layer, NowNs()); }
  ~ScopedSpan() { rec_->End(NowNs()); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

class TimedPacketSink : public element::PacketSink {
 public:
  TimedPacketSink(element::PacketSink* next, SpanRecorder* rec, Layer layer)
      : next_(next), rec_(rec), layer_(layer) {}

  void Deliver(element::Packet pkt) override {
    ScopedSpan span(rec_, layer_);
    next_->Deliver(std::move(pkt));
  }

 private:
  element::PacketSink* next_;
  SpanRecorder* rec_;
  Layer layer_;
};

class TimedRecordSink : public element::telemetry::RecordSink {
 public:
  TimedRecordSink(element::telemetry::RecordSink* next, SpanRecorder* rec)
      : next_(next), rec_(rec) {}

  void OnRecord(const element::telemetry::TraceRecord& record) override {
    ++records_;
    ScopedSpan span(rec_, Layer::kTrace);
    next_->OnRecord(record);
  }
  uint64_t records() const { return records_; }

 private:
  element::telemetry::RecordSink* next_;
  SpanRecorder* rec_;
  uint64_t records_ = 0;
};

class TimedByteSink : public element::ByteSink {
 public:
  TimedByteSink(element::ByteSink* inner, SpanRecorder* rec, Layer layer)
      : inner_(inner), rec_(rec), layer_(layer) {}

  size_t Write(size_t n) override {
    ScopedSpan span(rec_, layer_);
    return inner_->Write(n);
  }
  void SetWritableCallback(std::function<void()> cb) override {
    inner_->SetWritableCallback(std::move(cb));
  }
  element::TcpSocket* socket() override { return inner_->socket(); }

 private:
  element::ByteSink* inner_;
  SpanRecorder* rec_;
  Layer layer_;
};

// Routes app writes through ElementSocket::Send, as the experiment drivers'
// own adapter does.
class EmByteSink : public element::ByteSink {
 public:
  explicit EmByteSink(element::ElementSocket* em) : em_(em) {}

  size_t Write(size_t n) override {
    element::RetInfo info = em_->Send(n);
    return info.size > 0 ? static_cast<size_t>(info.size) : 0;
  }
  void SetWritableCallback(std::function<void()> cb) override {
    em_->SetReadyToSendCallback(std::move(cb));
  }
  element::TcpSocket* socket() override { return em_->socket(); }

 private:
  element::ElementSocket* em_;
};

// The drivers' SinkApp drain loop (read 64 KiB until the socket is empty),
// with a span around each read when a recorder is given.
class Reader {
 public:
  Reader(element::TcpSocket* socket, element::ElementSocket* em, SpanRecorder* rec)
      : socket_(socket), em_(em), rec_(rec) {}

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Start() {
    if (em_ != nullptr) {
      em_->SetReadableCallback([this] { Drain(); });
    } else {
      socket_->SetReadableCallback([this] { Drain(); });
    }
    Drain();
  }

 private:
  void Drain() {
    constexpr size_t kReadChunk = 64 * 1024;
    while (socket_->ReadableBytes() > 0) {
      if (rec_ == nullptr) {
        ReadOnce(kReadChunk);
      } else {
        ScopedSpan span(rec_, em_ != nullptr ? Layer::kElemRecv : Layer::kTcpRead);
        ReadOnce(kReadChunk);
      }
    }
  }
  void ReadOnce(size_t n) {
    if (em_ != nullptr) {
      em_->Read(n);
    } else {
      socket_->Read(n);
    }
  }

  element::TcpSocket* socket_;
  element::ElementSocket* em_;
  SpanRecorder* rec_;
};

// Owns the decorators of one replica run. With a null recorder it inserts
// none and returns its inputs, so the run is exactly the driver's wiring.
class Probes {
 public:
  explicit Probes(SpanRecorder* rec) : rec_(rec) {}

  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  SpanRecorder* recorder() const { return rec_; }

  // The tx sink to hand a socket: its first pipe, behind a netsim.tx span.
  element::PacketSink* Tx(element::PacketSink* pipe) {
    if (rec_ == nullptr) {
      return pipe;
    }
    packet_sinks_.push_back(std::make_unique<TimedPacketSink>(pipe, rec_, Layer::kNetTx));
    return packet_sinks_.back().get();
  }

  // The demux to hand a socket's constructor. Traced sockets register in a
  // private demux; AttachRx then puts a tcpsim.rx decorator in the host's.
  element::Demux* SocketDemux(element::Demux* host) {
    if (rec_ == nullptr) {
      return host;
    }
    demuxes_.push_back(std::make_unique<element::Demux>());
    return demuxes_.back().get();
  }
  void AttachRx(element::Demux* host, element::TcpSocket* socket) {
    if (rec_ == nullptr) {
      return;
    }
    packet_sinks_.push_back(std::make_unique<TimedPacketSink>(socket, rec_, Layer::kTcpRx));
    host->Register(socket->flow_id(), packet_sinks_.back().get());
  }

  element::telemetry::RecordSink* Trace(element::telemetry::RecordSink* tracer) {
    if (rec_ == nullptr) {
      return tracer;
    }
    record_sinks_.push_back(std::make_unique<TimedRecordSink>(tracer, rec_));
    return record_sinks_.back().get();
  }

  element::ByteSink* Writes(element::ByteSink* sink, Layer layer) {
    if (rec_ == nullptr) {
      return sink;
    }
    byte_sinks_.push_back(std::make_unique<TimedByteSink>(sink, rec_, layer));
    return byte_sinks_.back().get();
  }

  uint64_t trace_records() const {
    uint64_t n = 0;
    for (const auto& s : record_sinks_) {
      n += s->records();
    }
    return n;
  }

 private:
  SpanRecorder* rec_;
  std::vector<std::unique_ptr<element::PacketSink>> packet_sinks_;
  std::vector<std::unique_ptr<element::Demux>> demuxes_;
  std::vector<std::unique_ptr<TimedRecordSink>> record_sinks_;
  std::vector<std::unique_ptr<element::ByteSink>> byte_sinks_;
};

}  // namespace perfbench

#endif  // ELEMENT_PERFBENCH_PROBES_H_
