#include "src/apps/measured_flow.h"

#include <algorithm>

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
  r.sender_delay_stdev_s = tracer_.sender_delay().Stdev();
  r.receiver_delay_stdev_s = tracer_.receiver_delay().Stdev();
  r.retransmits = sender_->total_retransmits();
  return r;
}

AccuracyResult MeasuredFlow::SenderAccuracy() const {
  ELEMENT_CHECK(em_snd_ != nullptr) << "accuracy needs a measured flow";
  return ScoreEstimates(em_snd_->sender_estimator().delay_series(),
                        tracer_.sender_delay_series());
}

AccuracyResult MeasuredFlow::ReceiverAccuracy() const {
  ELEMENT_CHECK(em_rcv_ != nullptr) << "accuracy needs a measured flow";
  return ScoreEstimates(em_rcv_->receiver_estimator().delay_series(),
                        tracer_.receiver_delay_series());
}

}  // namespace element
