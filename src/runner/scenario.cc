#include "src/runner/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <variant>

#include "src/common/json.h"

namespace element {

namespace {

// Views, so a match compares lengths first and never runs strlen.
constexpr std::string_view kApps[] = {"legacy", "accuracy"};
constexpr std::string_view kTopologies[] = {"none", "dumbbell", "parking_lot"};
constexpr std::string_view kProfiles[] = {"wired", "lan", "cable", "cable_up",
                                          "wifi", "lte", "lte_up"};
constexpr std::string_view kCcs[] = {"reno", "cubic", "cubic-nohystart", "vegas", "ledbat", "bbr"};
constexpr std::string_view kElementModes[] = {"off", "first", "wireless"};
constexpr std::string_view kSuiteKeys[] = {"suite", "defaults", "scenarios", "sweeps"};

template <size_t N>
bool OneOf(const std::string& v, const std::string_view (&set)[N]) {
  for (std::string_view s : set) {
    if (v == s) {
      return true;
    }
  }
  return false;
}

// What `std::ostream << v` prints with default flags: printf's "%g".
std::string FormatG(double v) {
  char buf[32];
  char* end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6).ptr;
  return std::string(buf, end);
}

template <size_t N>
std::string Options(const std::string_view (&set)[N]) {
  std::string out;
  for (std::string_view s : set) {
    if (!out.empty()) {
      out += "|";
    }
    out += s;
  }
  return out;
}

// Every ScenarioSpec field under its JSON key: the one list that parsing
// walks. json::Value objects are sorted maps, so the order here does not
// change the parse order.
using FieldPtr = std::variant<std::string ScenarioSpec::*, double ScenarioSpec::*,
                              int ScenarioSpec::*, bool ScenarioSpec::*, uint64_t ScenarioSpec::*>;

struct Field {
  const char* key;
  FieldPtr member;
  // A time field's nanoseconds per unit, else 0. The drivers convert time
  // fields to int64 nanoseconds, so Validate checks that they fit.
  double ns_per_unit = 0.0;
};

constexpr Field kFields[] = {
    {"name", &ScenarioSpec::name},
    {"app", &ScenarioSpec::app},
    {"profile", &ScenarioSpec::profile},
    {"rate_mbps", &ScenarioSpec::rate_mbps},
    {"rtt_ms", &ScenarioSpec::rtt_ms, 1e6},
    {"queue_packets", &ScenarioSpec::queue_packets},
    {"ecn", &ScenarioSpec::ecn},
    {"qdisc", &ScenarioSpec::qdisc},
    {"cc", &ScenarioSpec::cc},
    {"topology", &ScenarioSpec::topology},
    {"hops", &ScenarioSpec::hops},
    {"cross_iperf", &ScenarioSpec::cross_iperf},
    {"cross_onoff", &ScenarioSpec::cross_onoff},
    {"num_flows", &ScenarioSpec::num_flows},
    {"element_mode", &ScenarioSpec::element_mode},
    {"duration_s", &ScenarioSpec::duration_s, 1e9},
    {"warmup_s", &ScenarioSpec::warmup_s, 1e9},
    {"seed", &ScenarioSpec::seed},
};

// The first time field whose nanoseconds do not fit in int64, or null.
const Field* OverflowingTimeField(const ScenarioSpec& spec) {
  // 2^63, the first value past int64's range; a double holds it exactly.
  constexpr double kInt64End = 9223372036854775808.0;
  for (const Field& field : kFields) {
    if (field.ns_per_unit == 0.0) {
      continue;
    }
    double ns = spec.*std::get<double ScenarioSpec::*>(field.member) * field.ns_per_unit;
    if (!(ns >= -kInt64End && ns < kInt64End)) {
      return &field;
    }
  }
  return nullptr;
}

const Field* FindField(const std::string& key) {
  for (const Field& field : kFields) {
    if (key == field.key) {
      return &field;
    }
  }
  return nullptr;
}

// The paper's wired sizing (Fig. 7): 2x BDP, floor of 60 packets. Validate
// checks that it fits in size_t before any caller casts it.
double AutoQueueSize(double rate_mbps, double rtt_ms) {
  double bdp_pkts = rate_mbps * 1e6 / 8.0 * rtt_ms * 1e-3 / 1500.0;
  return std::max(60.0, 2.0 * bdp_pkts);
}

}  // namespace

std::string ScenarioSpec::Id() const { return name + "#s" + std::to_string(seed); }

PathConfig ScenarioSpec::BuildPath() const {
  PathConfig path;
  if (profile == "lan") {
    path = LanProfile();
  } else if (profile == "cable") {
    path = CableProfile(/*upload=*/false);
  } else if (profile == "cable_up") {
    path = CableProfile(/*upload=*/true);
  } else if (profile == "wifi") {
    path = WifiProfile();
  } else if (profile == "lte") {
    path = LteProfile(/*upload=*/false);
  } else if (profile == "lte_up") {
    path = LteProfile(/*upload=*/true);
  } else {
    path.rate = DataRate::Mbps(rate_mbps);
    path.one_way_delay = TimeDelta::FromNanos(static_cast<int64_t>(rtt_ms * 1e6 / 2.0));
    if (queue_packets == 0) {
      path.queue_limit_packets = static_cast<size_t>(AutoQueueSize(rate_mbps, rtt_ms));
    }
  }
  if (queue_packets > 0) {
    path.queue_limit_packets = static_cast<size_t>(queue_packets);
  }
  QdiscType q = QdiscType::kPfifoFast;
  if (ParseQdisc(qdisc, &q)) {
    path.qdisc = q;
  }
  path.ecn = ecn;
  return path;
}

TopologySpec ScenarioSpec::BuildTopology() const {
  TopologySpec topo;
  topo.shape = topology == "parking_lot" ? TopologyShape::kParkingLot : TopologyShape::kDumbbell;
  topo.hops = topology == "parking_lot" ? hops : 1;
  topo.host_pairs = num_flows;
  QdiscType q = QdiscType::kPfifoFast;
  if (ParseQdisc(qdisc, &q)) {
    topo.qdisc = q;
  }
  topo.ecn = ecn;
  topo.bottleneck_rate = DataRate::Mbps(rate_mbps);
  topo.queue_limit_packets = queue_packets > 0
                                 ? static_cast<size_t>(queue_packets)
                                 : static_cast<size_t>(AutoQueueSize(rate_mbps, rtt_ms));
  // One-way budget: 5% on each access link, the rest split across the hops,
  // so Network::BaseRtt() reproduces rtt_ms end to end.
  double one_way_ms = rtt_ms / 2.0;
  topo.access_delay = TimeDelta::FromNanos(static_cast<int64_t>(one_way_ms * 0.05 * 1e6));
  topo.bottleneck_delay =
      TimeDelta::FromNanos(static_cast<int64_t>(one_way_ms * 0.9 / topo.hops * 1e6));
  return topo;
}

std::string ScenarioSpec::Validate() const {
  // One chain of checks; only the branch that fails builds its message.
  std::string problem;
  if (!OneOf(app, kApps)) {
    problem = "unknown app '" + app + "' (" + Options(kApps) + ")";
  } else if (!OneOf(profile, kProfiles)) {
    problem = "unknown profile '" + profile + "' (" + Options(kProfiles) + ")";
  } else if (QdiscType q; !ParseQdisc(qdisc, &q)) {
    problem = "unknown qdisc '" + qdisc + "' (pfifo_fast|codel|fq_codel|pie|red)";
  } else if (!OneOf(cc, kCcs)) {
    problem = "unknown cc '" + cc + "' (" + Options(kCcs) + ")";
  } else if (!OneOf(element_mode, kElementModes)) {
    problem = "unknown element_mode '" + element_mode + "' (" + Options(kElementModes) + ")";
  } else if (const Field* f = OverflowingTimeField(*this)) {
    problem = std::string(f->key) + " = " +
              FormatG(this->*std::get<double ScenarioSpec::*>(f->member)) +
              " is out of range: its nanoseconds must fit in int64";
  } else if (duration_s <= 0.0) {
    problem = "duration_s must be positive, got " + FormatG(duration_s);
  } else if (warmup_s < 0.0 || warmup_s >= duration_s) {
    problem = "warmup_s must be in [0, duration_s), got " + FormatG(warmup_s);
  } else if (num_flows < 1) {
    problem = "num_flows must be >= 1, got " + std::to_string(num_flows);
  } else if (rate_mbps <= 0.0) {
    problem = "rate_mbps must be positive, got " + FormatG(rate_mbps);
  } else if (queue_packets < 0) {
    problem = "queue_packets must be >= 0 (0 sizes the queue automatically), got " +
              std::to_string(queue_packets);
  } else if (rtt_ms <= 0.0) {
    problem = "rtt_ms must be positive, got " + FormatG(rtt_ms);
  } else if (profile == "wired" && queue_packets == 0 &&
             !(AutoQueueSize(rate_mbps, rtt_ms) < 18446744073709551616.0)) {  // 2^64
    problem = "rate_mbps = " + FormatG(rate_mbps) + " is out of range: at rtt_ms = " +
              FormatG(rtt_ms) +
              " its auto-sized queue (2x BDP) does not fit in size_t; set queue_packets";
  } else if (!OneOf(topology, kTopologies)) {
    problem = "unknown topology '" + topology + "' (" + Options(kTopologies) + ")";
  } else if (hops < 1 || hops > 16) {
    problem = "hops must be in [1, 16], got " + std::to_string(hops);
  } else if (cross_iperf < 0 || cross_onoff < 0) {
    problem = "cross_iperf/cross_onoff must be >= 0";
  } else if (topology != "none") {
    if (topology == "dumbbell" && hops != 1) {
      problem = "dumbbell topology is single-hop; set hops via topology=parking_lot";
    } else if (app != "legacy") {
      problem = "topology runs use app=legacy (got '" + app + "')";
    } else if (profile != "wired") {
      problem = "topology runs use profile=wired (got '" + profile + "')";
    } else if (element_mode == "wireless") {
      problem = "element_mode=wireless is single-path only";
    }
  } else if (cross_iperf > 0 || cross_onoff > 0) {
    problem = "cross traffic needs a topology";
  } else if (app == "accuracy") {
    // The accuracy app always measures one default Cubic flow, client to
    // server.
    if (num_flows != 1) {
      problem = "app=accuracy runs one flow; num_flows must be 1, got " + std::to_string(num_flows);
    } else if (element_mode != "off") {
      problem = "app=accuracy always measures flow 0; element_mode must be off (got '" +
                element_mode + "')";
    } else if (cc != "cubic") {
      problem = "app=accuracy runs Cubic; cc must be cubic (got '" + cc + "')";
    }
  }
  return problem;
}

namespace {

// Typed field readers: a value of the wrong JSON type fails the parse with a
// message naming the field, instead of silently keeping the default.
bool Read(const json::Value& v, const std::string& field, std::string* out, std::string* error) {
  if (!v.is_string()) {
    *error = "field '" + field + "' must be a string";
    return false;
  }
  *out = v.AsString();
  return true;
}

bool Read(const json::Value& v, const std::string& field, double* out, std::string* error) {
  if (!v.is_number()) {
    *error = "field '" + field + "' must be a number";
    return false;
  }
  *out = v.AsDouble();
  return true;
}

bool Read(const json::Value& v, const std::string& field, bool* out, std::string* error) {
  if (!v.is_bool()) {
    *error = "field '" + field + "' must be a bool";
    return false;
  }
  *out = v.AsBool();
  return true;
}

// Integers must be integral numbers that fit `Int` exactly, so 2.7 or 1e30
// is rejected rather than truncated (or cast out of range).
template <typename Int>
bool Read(const json::Value& v, const std::string& field, Int* out, std::string* error) {
  constexpr Int kMin = std::numeric_limits<Int>::min();
  constexpr Int kMax = std::numeric_limits<Int>::max();
  double x = v.AsDouble();
  // kMax + 1 is a power of two, so the exclusive upper bound is exact.
  if (!v.is_number() || std::floor(x) != x || x < static_cast<double>(kMin) ||
      x >= static_cast<double>(kMax) + 1.0) {
    *error = "field '" + field + "' must be an integer in [" + std::to_string(kMin) + ", " +
             std::to_string(kMax) + "]";
    return false;
  }
  *out = static_cast<Int>(x);
  return true;
}

bool ReadField(const json::Value& v, const std::string& key, const FieldPtr& member,
               ScenarioSpec* spec, std::string* error) {
  return std::visit([&](auto m) { return Read(v, key, &(spec->*m), error); }, member);
}

// The sweep axes in expansion order, outermost first, with the affixes of
// their label segment ("/20mbps", "/ci2").
struct Axis {
  const char* key;
  const char* prefix;
  const char* suffix;
};

constexpr Axis kAxes[] = {
    {"profile", "", ""},
    {"topology", "", ""},
    {"rate_mbps", "", "mbps"},
    {"rtt_ms", "", "ms"},
    {"qdisc", "", ""},
    {"cc", "", ""},
    {"num_flows", "", "f"},
    {"cross_iperf", "ci", ""},
    {"cross_onoff", "co", ""},
};

std::string LabelText(const std::string& v) { return v; }
std::string LabelText(double v) { return json::FormatNumber(v); }
template <typename Int>
std::string LabelText(Int v) {
  return std::to_string(v);
}

// Applies the scalar spec fields present in `obj` onto `spec`. In a sweep
// entry, axis arrays and the seed object are left to the expansion; any other
// unknown key is an error so suite typos fail loudly.
bool ApplySpecFields(const json::Value& obj, ScenarioSpec* spec, bool sweep, std::string* error) {
  for (const auto& [key, v] : obj.fields()) {
    auto is_axis = [&key = key](const Axis& axis) { return key == axis.key; };
    if (sweep && ((v.is_array() && std::any_of(std::begin(kAxes), std::end(kAxes), is_axis)) ||
                  (key == "seed" && v.is_object()))) {
      continue;
    }
    const Field* field = FindField(key);
    if (field == nullptr) {
      *error = "unknown scenario field '" + key + "'";
      return false;
    }
    if (!ReadField(v, key, field->member, spec, error)) {
      return false;
    }
  }
  return true;
}

// One non-empty sweep axis. Each item is read once into its own spec, of which
// only the axis field matters; a label segment is kept only when the axis has
// more than one item.
struct AxisValues {
  FieldPtr member;
  std::vector<ScenarioSpec> items;
  std::vector<std::string> labels;
};

// Expands one sweep entry: every combination of its axis items (an odometer
// whose last axis turns fastest) applied on top of `defaults` plus the entry's
// scalar fields, each repeated over the seeds, innermost. Empty axes keep the
// base value. `where` names the entry in messages.
bool ExpandSweep(const json::Value& entry, const std::string& where, const ScenarioSpec& defaults,
                 std::vector<ScenarioSpec>* out, std::string* error) {
  ScenarioSpec base = defaults;
  if (!ApplySpecFields(entry, &base, /*sweep=*/true, error)) {
    return false;
  }
  if (base.name.empty()) {
    base.name = "sweep";
  }
  auto too_many = [&](const std::string& count) {
    *error = where + " brings the suite to " + count + " scenarios; a suite holds at most " +
             std::to_string(ScenarioSuite::kMaxScenarios);
    return false;
  };
  std::vector<AxisValues> axes;
  // Stays within kMaxScenarios times one axis's length, so no multiply wraps.
  uint64_t combinations = 1;
  for (const Axis& axis : kAxes) {
    const json::Value* v = entry.Find(axis.key);
    if (v == nullptr || !v->is_array() || v->items().empty()) {
      continue;
    }
    AxisValues& values = axes.emplace_back();
    values.member = FindField(axis.key)->member;
    for (size_t i = 0; i < v->items().size(); ++i) {
      std::string key = std::string(axis.key) + "[" + std::to_string(i) + "]";
      if (!ReadField(v->items()[i], key, values.member, &values.items.emplace_back(), error)) {
        return false;
      }
      std::string text =
          std::visit([&](auto m) { return LabelText(values.items.back().*m); }, values.member);
      values.labels.push_back(v->items().size() > 1 ? "/" + (axis.prefix + text) + axis.suffix
                                                    : "");
    }
    combinations *= values.items.size();
    if (out->size() + combinations > ScenarioSuite::kMaxScenarios) {
      return too_many("at least " + std::to_string(out->size() + combinations));
    }
  }
  uint64_t seed_base = base.seed;
  int seed_count = 1;
  if (const json::Value* seed = entry.Find("seed"); seed != nullptr && seed->is_object()) {
    for (const auto& [key, v] : seed->fields()) {
      bool ok = false;
      if (key == "base") {
        ok = Read(v, "seed.base", &seed_base, error);
      } else if (key == "count") {
        ok = Read(v, "seed.count", &seed_count, error);
      } else {
        *error = "unknown seed field '" + key + "' (base|count)";
      }
      if (!ok) {
        return false;
      }
    }
    if (seed_count < 1) {
      *error = "field 'seed.count' must be >= 1, got " + std::to_string(seed_count);
      return false;
    }
  }

  const uint64_t expanded = combinations * static_cast<uint64_t>(seed_count);
  if (out->size() + expanded > ScenarioSuite::kMaxScenarios) {
    return too_many(std::to_string(out->size() + expanded));
  }
  out->reserve(out->size() + expanded);
  std::vector<size_t> at(axes.size(), 0);
  for (size_t n = 0; n < combinations; ++n) {
    ScenarioSpec spec = base;
    for (size_t a = 0; a < axes.size(); ++a) {
      const ScenarioSpec& item = axes[a].items[at[a]];
      std::visit([&](auto m) { spec.*m = item.*m; }, axes[a].member);
      spec.name += axes[a].labels[at[a]];
    }
    for (int k = 0; k < seed_count; ++k) {
      spec.seed = seed_base + static_cast<uint64_t>(k);
      out->push_back(spec);
    }
    // Turn the odometer: bump the last axis, carrying into earlier ones.
    for (size_t a = axes.size(); a-- > 0 && ++at[a] == axes[a].items.size();) {
      at[a] = 0;
    }
  }
  return true;
}

}  // namespace

bool ScenarioSuite::ParseJson(const std::string& text, ScenarioSuite* out, std::string* error) {
  json::Value doc;
  if (!json::Value::Parse(text, &doc, error)) {
    return false;
  }
  if (!doc.is_object()) {
    *error = "suite document must be a JSON object";
    return false;
  }
  for (const auto& [key, v] : doc.fields()) {
    if (!OneOf(key, kSuiteKeys)) {
      *error = "unknown suite key '" + key + "' (" + Options(kSuiteKeys) + ")";
      return false;
    }
  }
  ScenarioSuite suite;
  const json::Value* suite_name = doc.Find("suite");
  if (suite_name != nullptr && !Read(*suite_name, "suite", &suite.name, error)) {
    return false;
  }
  ScenarioSpec defaults;
  if (const json::Value* v = doc.Find("defaults")) {
    if (!v->is_object()) {
      *error = "'defaults' must be an object";
      return false;
    }
    if (!ApplySpecFields(*v, &defaults, /*sweep=*/false, error)) {
      return false;
    }
  }
  if (const json::Value* v = doc.Find("scenarios")) {
    if (!v->is_array()) {
      *error = "'scenarios' must be an array";
      return false;
    }
    for (size_t i = 0; i < v->items().size(); ++i) {
      if (!v->items()[i].is_object()) {
        *error = "scenarios[" + std::to_string(i) + "] must be an object";
        return false;
      }
      ScenarioSpec spec = defaults;
      if (!ApplySpecFields(v->items()[i], &spec, /*sweep=*/false, error)) {
        return false;
      }
      if (spec.name.empty()) {
        spec.name = "scenario" + std::to_string(i);
      }
      suite.scenarios.push_back(std::move(spec));
    }
  }
  if (const json::Value* v = doc.Find("sweeps")) {
    if (!v->is_array()) {
      *error = "'sweeps' must be an array";
      return false;
    }
    for (size_t i = 0; i < v->items().size(); ++i) {
      const std::string where = "sweeps[" + std::to_string(i) + "]";
      if (!v->items()[i].is_object()) {
        *error = where + " must be an object";
        return false;
      }
      if (!ExpandSweep(v->items()[i], where, defaults, &suite.scenarios, error)) {
        return false;
      }
    }
  }
  for (const ScenarioSpec& spec : suite.scenarios) {
    std::string problem = spec.Validate();
    if (!problem.empty()) {
      *error = "scenario '" + spec.name + "': " + problem;
      return false;
    }
  }
  *out = std::move(suite);
  return true;
}

bool ScenarioSuite::LoadFile(const std::string& path, ScenarioSuite* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!ParseJson(buf.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

void ScenarioSuite::OffsetSeeds(uint64_t offset) {
  for (ScenarioSpec& spec : scenarios) {
    spec.seed += offset;
  }
}

}  // namespace element
