#include "src/apps/measured_flow.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/element/interposer.h"

namespace element {

MeasuredFlow::MeasuredFlow(EventLoop* loop, TcpSocket* sender, TcpSocket* receiver,
                           const Options& options)
    : element_(options.element), sender_(sender), receiver_(receiver), tracer_(options.tracer) {
  sender_->telemetry().AttachSink(&tracer_);
  receiver_->telemetry().AttachSink(&tracer_);
  switch (element_) {
    case Element::kOff:
      sink_ = std::make_unique<RawTcpSink>(sender_);
      reader_ = std::make_unique<SinkApp>(receiver_);
      break;
    case Element::kMeasured: {
      ElementSocket::Options measure;
      measure.enable_latency_minimization = false;
      measure.tracker_period = options.tracker_period;
      em_snd_ = std::make_unique<ElementSocket>(loop, sender_, measure);
      em_rcv_ = std::make_unique<ElementSocket>(loop, receiver_, measure);
      em_snd_->sender_estimator().telemetry().AttachSink(&sender_scorer_);
      em_rcv_->receiver_estimator().telemetry().AttachSink(&receiver_scorer_);
      tracer_.ScoreInto(&sender_scorer_.scorer, &receiver_scorer_.scorer);
      sink_ = std::make_unique<ElementSink>(em_snd_.get());
      reader_ = std::make_unique<SinkApp>(em_rcv_.get());
      break;
    }
    case Element::kInterposed:
      sink_ = std::make_unique<InterposedSink>(loop, sender_, options.wireless);
      reader_ = std::make_unique<SinkApp>(receiver_);
      break;
  }
  app_ = std::make_unique<IperfApp>(loop, sink_.get());
}

void MeasuredFlow::Start() {
  app_->Start();
  reader_->Start();
}

double MeasuredFlow::GoodputMbps(double duration_s) const {
  return RateOver(static_cast<int64_t>(receiver_->app_bytes_read()),
                  TimeDelta::FromSeconds(duration_s))
      .ToMbps();
}

FlowResult MeasuredFlow::Result(const std::string& congestion_control, double duration_s,
                                double base_delay_s) const {
  FlowResult r;
  r.label = element_ == Element::kOff ? congestion_control : congestion_control + "+ELEMENT";
  r.goodput_mbps = GoodputMbps(duration_s);
  GroundTruthTracer::Composition c = tracer_.MeanComposition();
  r.sender_delay_s = c.sender_s;
  r.network_delay_s = c.network_s;
  r.receiver_delay_s = c.receiver_s;
  r.e2e_delay_s = tracer_.end_to_end_delay().mean();
  r.relative_delay_s = std::max(0.0, r.e2e_delay_s - base_delay_s);
  r.retransmits = sender_->total_retransmits();
  return r;
}

AccuracyResult MeasuredFlow::SenderAccuracy() const {
  ELEMENT_CHECK(em_snd_ != nullptr) << "accuracy needs a measured flow";
  return sender_scorer_.scorer.Result();
}

AccuracyResult MeasuredFlow::ReceiverAccuracy() const {
  ELEMENT_CHECK(em_rcv_ != nullptr) << "accuracy needs a measured flow";
  return receiver_scorer_.scorer.Result();
}

ElementSocket& MeasuredFlow::element_sender() {
  ELEMENT_CHECK(em_snd_ != nullptr) << "only a measured flow has ElementSockets";
  return *em_snd_;
}

ElementSocket& MeasuredFlow::element_receiver() {
  ELEMENT_CHECK(em_rcv_ != nullptr) << "only a measured flow has ElementSockets";
  return *em_rcv_;
}

FlowSet::FlowSet(EventLoop* loop, const FlowSetConfig& config, MakePair make_pair)
    : loop_(loop),
      config_(config),
      make_pair_(std::move(make_pair)),
      joins_(loop, [this] {
        AddFlow(config_.others);
        flows_.back()->Start();
      }) {
  ELEMENT_CHECK(config_.flows >= 1) << "a flow set needs at least one flow";
  flows_.reserve(static_cast<size_t>(config_.flows));
  for (int i = 0; i < config_.flows; ++i) {
    AddFlow(i == 0 ? config_.first : config_.others);
  }
}

FlowSet::FlowSet(Testbed* bed, const FlowSetConfig& config)
    : FlowSet(&bed->loop(), config,
              [bed](const TcpSocket::Config& socket) { return bed->CreateFlow(socket); }) {}

void FlowSet::AddFlow(const MeasuredFlow::Options& options) {
  Testbed::Flow pair = make_pair_(config_.socket);
  flows_.push_back(std::make_unique<MeasuredFlow>(loop_, pair.sender, pair.receiver, options));
}

void FlowSet::Start() {
  for (const std::unique_ptr<MeasuredFlow>& flow : flows_) {
    flow->Start();
  }
  // Pushed after the Start calls: events at equal times fire in the order
  // they were armed.
  for (int i = 0; i < config_.staggered_flows; ++i) {
    double join_s = 20.0 * (i + 1);
    joins_.Push(SimTime::FromNanos(static_cast<int64_t>(join_s * 1e9)));
  }
}

void FlowSet::Run() {
  loop_->RunUntil(SimTime::FromNanos(static_cast<int64_t>(config_.duration_s * 1e9)));
}

std::vector<FlowResult> FlowSet::Results(double base_delay_s) const {
  std::vector<FlowResult> results;
  results.reserve(flows_.size());
  for (const std::unique_ptr<MeasuredFlow>& flow : flows_) {
    results.push_back(
        flow->Result(config_.socket.congestion_control, config_.duration_s, base_delay_s));
  }
  return results;
}

AccuracyRun FlowSet::FirstAccuracy() const {
  const MeasuredFlow& flow = *flows_.front();
  AccuracyRun run;
  run.sender = flow.SenderAccuracy();
  run.receiver = flow.ReceiverAccuracy();
  run.composition = flow.tracer().MeanComposition();
  run.goodput_mbps = flow.GoodputMbps(config_.duration_s);
  return run;
}

}  // namespace element
