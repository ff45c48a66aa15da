#include "src/netsim/qdisc_factory.h"

#include "src/netsim/codel.h"
#include "src/netsim/fq_codel.h"
#include "src/netsim/pfifo_fast.h"
#include "src/netsim/pie.h"
#include "src/netsim/red.h"

namespace element {

std::unique_ptr<Qdisc> MakeBottleneckQdisc(QdiscType type, size_t limit, bool ecn, Rng* rng) {
  std::unique_ptr<Qdisc> q;
  switch (type) {
    case QdiscType::kPfifoFast:
      q = std::make_unique<PfifoFast>(limit);
      break;
    case QdiscType::kCoDel: {
      CoDelParams params;
      params.limit_packets = limit;
      q = std::make_unique<CoDel>(params);
      break;
    }
    case QdiscType::kFqCoDel: {
      FqCoDelParams params;
      params.limit_packets = limit * 10;  // FQ-CoDel's limit is per-qdisc, roomy
      q = std::make_unique<FqCoDel>(params);
      break;
    }
    case QdiscType::kPie: {
      PieParams params;
      params.limit_packets = limit;
      q = std::make_unique<Pie>(params, rng->Fork());
      break;
    }
    case QdiscType::kRed: {
      RedParams params;
      params.limit_packets = limit;
      params.min_threshold_packets = static_cast<double>(limit) * 0.2;
      params.max_threshold_packets = static_cast<double>(limit) * 0.6;
      q = std::make_unique<Red>(params, rng->Fork());
      break;
    }
  }
  q->set_ecn_enabled(ecn);
  return q;
}

}  // namespace element
