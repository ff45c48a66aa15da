// The one bottleneck-qdisc factory, shared by the single-path Testbed and the
// multi-flow topology layer (src/topo/): builds a discipline with the repo's
// standard parameterization (FQ-CoDel gets a roomy per-qdisc limit, RED
// thresholds at 20%/60% of the limit).

#ifndef ELEMENT_SRC_NETSIM_QDISC_FACTORY_H_
#define ELEMENT_SRC_NETSIM_QDISC_FACTORY_H_

#include <cstddef>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/netsim/qdisc.h"

namespace element {

enum class QdiscType { kPfifoFast, kCoDel, kFqCoDel, kPie, kRed };

// Disciplines that need randomness (PIE, RED) fork `rng`.
std::unique_ptr<Qdisc> MakeBottleneckQdisc(QdiscType type, size_t limit, bool ecn, Rng* rng);

// Display name ("pfifo_fast", "CoDel", "FQ_CoDel", "PIE", "RED").
std::string DescribeQdisc(QdiscType type);
// Case-insensitive: pfifo_fast|pfifo, codel, fq_codel|fqcodel, pie, red.
// Returns false (leaving *out alone) for any other name.
bool ParseQdisc(const std::string& name, QdiscType* out);

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_QDISC_FACTORY_H_
