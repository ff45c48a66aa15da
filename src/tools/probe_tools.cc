#include "src/tools/probe_tools.h"

#include <utility>

#include "src/tcpsim/tcp_segment.h"

namespace element {

namespace {

constexpr uint32_t kSynAckBytes = 60;

// echoping's exchange: a request, its document, and the pause after it.
constexpr uint32_t kRequestBytes = 100;
constexpr size_t kDocumentBytes = 256 * 1024;
constexpr TimeDelta kPause = TimeDelta::FromMillis(200);

}  // namespace

void SynResponder::Deliver(Packet pkt) {
  const auto& seg = *static_cast<const TcpSegmentPayload*>(pkt.payload.get());
  if (!seg.syn || seg.ack) {
    return;
  }
  TcpSegmentPayload synack;
  synack.syn = true;
  synack.ack = true;
  Packet reply;
  reply.flow_id = pkt.flow_id;
  reply.size_bytes = kSynAckBytes;
  reply.created = pkt.created;
  reply.payload = MakePooledPayload<TcpSegmentPayload>(loop_->payload_arena(), synack);
  reply_pipe_->Deliver(std::move(reply));
}

SynProbeTool::SynProbeTool(EventLoop* loop, DuplexPath* path, Profile profile)
    : loop_(loop),
      path_(path),
      profile_(std::move(profile)),
      flow_id_(path->AllocateFlowId()),
      timer_(loop, profile_.interval, [this] { SendProbe(); }) {
  responder_ = std::make_unique<SynResponder>(loop, &path_->reverse());
  path_->server_demux().Register(flow_id_, responder_.get());
  path_->client_demux().Register(flow_id_, this);
}

SynProbeTool::~SynProbeTool() {
  path_->server_demux().Unregister(flow_id_);
  path_->client_demux().Unregister(flow_id_);
}

void SynProbeTool::Start() {
  SendProbe();
  timer_.Start();
}

void SynProbeTool::SendProbe() {
  TcpSegmentPayload syn;
  syn.syn = true;
  Packet pkt;
  pkt.flow_id = flow_id_;
  pkt.size_bytes = profile_.probe_size_bytes;
  pkt.created = loop_->now();
  pkt.payload = MakePooledPayload<TcpSegmentPayload>(loop_->payload_arena(), syn);
  probe_sent_ = loop_->now();
  awaiting_reply_ = true;
  path_->forward().Deliver(std::move(pkt));
}

void SynProbeTool::Deliver(Packet /*pkt*/) {
  if (!awaiting_reply_) {
    return;
  }
  awaiting_reply_ = false;
  rtt_.Add((loop_->now() - probe_sent_).ToSeconds());
}

EchoPing::EchoPing(EventLoop* loop, TcpSocket* client, TcpSocket* server)
    : loop_(loop),
      client_(client),
      server_(server),
      expected_read_(0),
      pause_timer_(loop, [this] { SendRequest(); }) {}

void EchoPing::Start() {
  server_->SetReadableCallback([this] { OnServerReadable(); });
  server_->SetWritableCallback([this] { PumpServerResponse(); });
  client_->SetReadableCallback([this] { OnClientReadable(); });
  if (client_->established()) {
    SendRequest();
  } else {
    client_->SetEstablishedCallback([this] { SendRequest(); });
  }
}

void EchoPing::SendRequest() {
  if (in_flight_) {
    return;
  }
  in_flight_ = true;
  request_time_ = loop_->now();
  expected_read_ = client_->app_bytes_read() + kDocumentBytes;
  client_->Write(kRequestBytes);
}

void EchoPing::OnServerReadable() {
  size_t n = server_->Read(1 << 20);
  if (n > 0) {
    // HTTP-ish: any request triggers one document response.
    response_left_ += (n / kRequestBytes) * kDocumentBytes;
    PumpServerResponse();
  }
}

void EchoPing::PumpServerResponse() {
  while (response_left_ > 0) {
    size_t w = server_->Write(response_left_);
    response_left_ -= w;
    if (w == 0) {
      break;
    }
  }
}

void EchoPing::OnClientReadable() {
  while (client_->Read(1 << 20) > 0) {
  }
  if (in_flight_ && client_->app_bytes_read() >= expected_read_) {
    in_flight_ = false;
    times_.Add((loop_->now() - request_time_).ToSeconds());
    pause_timer_.RestartAfter(kPause);
  }
}

}  // namespace element
