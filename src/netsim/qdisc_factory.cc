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
    case QdiscType::kCoDel:
      q = std::make_unique<CoDel>(limit);
      break;
    case QdiscType::kFqCoDel:
      q = std::make_unique<FqCoDel>(limit * 10);  // FQ-CoDel's limit is per-qdisc, roomy
      break;
    case QdiscType::kPie:
      q = std::make_unique<Pie>(rng->Fork(), limit);
      break;
    case QdiscType::kRed:
      q = std::make_unique<Red>(limit, rng->Fork());
      break;
  }
  q->set_ecn_enabled(ecn);
  return q;
}

std::string DescribeQdisc(QdiscType type) {
  switch (type) {
    case QdiscType::kPfifoFast:
      return "pfifo_fast";
    case QdiscType::kCoDel:
      return "CoDel";
    case QdiscType::kFqCoDel:
      return "FQ_CoDel";
    case QdiscType::kPie:
      return "PIE";
    case QdiscType::kRed:
      return "RED";
  }
  return "?";
}

bool ParseQdisc(const std::string& name, QdiscType* out) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  }
  if (lower == "pfifo_fast" || lower == "pfifo") {
    *out = QdiscType::kPfifoFast;
  } else if (lower == "codel") {
    *out = QdiscType::kCoDel;
  } else if (lower == "fq_codel" || lower == "fqcodel") {
    *out = QdiscType::kFqCoDel;
  } else if (lower == "pie") {
    *out = QdiscType::kPie;
  } else if (lower == "red") {
    *out = QdiscType::kRed;
  } else {
    return false;
  }
  return true;
}

}  // namespace element
