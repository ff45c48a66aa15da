#include "src/runner/scenario.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

namespace element {

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

namespace {

const char* const kApps[] = {"legacy", "accuracy"};
const char* const kTopologies[] = {"none", "dumbbell", "parking_lot"};
const char* const kProfiles[] = {"wired", "lan", "cable", "cable_up", "wifi", "lte", "lte_up"};
const char* const kCcs[] = {"reno", "cubic", "cubic-nohystart", "vegas", "ledbat", "bbr"};
const char* const kElementModes[] = {"off", "first", "wireless"};

template <size_t N>
bool OneOf(const std::string& v, const char* const (&set)[N]) {
  for (const char* s : set) {
    if (v == s) {
      return true;
    }
  }
  return false;
}

template <size_t N>
std::string Options(const char* const (&set)[N]) {
  std::string out;
  for (const char* s : set) {
    if (!out.empty()) {
      out += "|";
    }
    out += s;
  }
  return out;
}

}  // namespace

std::string ScenarioSpec::Id() const {
  std::ostringstream os;
  os << name << "#s" << seed;
  return os.str();
}

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
    if (queue_packets <= 0) {
      // The paper's wired sizing (Fig. 7): 2x BDP, floor of 60 packets.
      double bdp_pkts = rate_mbps * 1e6 / 8.0 * rtt_ms * 1e-3 / 1500.0;
      path.queue_limit_packets = static_cast<size_t>(std::max(60.0, 2.0 * bdp_pkts));
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
  if (loss > 0.0) {
    path.loss_probability = loss;
  }
  return path;
}

TopologySpec ScenarioSpec::BuildTopology() const {
  TopologySpec topo;
  topo.shape = topology == "parking_lot" ? TopologyShape::kParkingLot : TopologyShape::kDumbbell;
  topo.hops = topology == "parking_lot" ? hops : 1;
  topo.host_pairs = host_pairs > 0 ? host_pairs : num_flows;
  QdiscType q = QdiscType::kPfifoFast;
  if (ParseQdisc(qdisc, &q)) {
    topo.qdisc = q;
  }
  topo.ecn = ecn;
  topo.bottleneck_rate = DataRate::Mbps(rate_mbps);
  if (queue_packets > 0) {
    topo.queue_limit_packets = static_cast<size_t>(queue_packets);
  } else {
    // Same sizing rule as the single-path wired profile: 2x BDP, floor 60.
    double bdp_pkts = rate_mbps * 1e6 / 8.0 * rtt_ms * 1e-3 / 1500.0;
    topo.queue_limit_packets = static_cast<size_t>(std::max(60.0, 2.0 * bdp_pkts));
  }
  // One-way budget: 5% on each access link, the rest split across the hops,
  // so Network::BaseRtt() reproduces rtt_ms end to end.
  double one_way_ms = rtt_ms / 2.0;
  topo.access_delay = TimeDelta::FromNanos(static_cast<int64_t>(one_way_ms * 0.05 * 1e6));
  topo.bottleneck_delay =
      TimeDelta::FromNanos(static_cast<int64_t>(one_way_ms * 0.9 / topo.hops * 1e6));
  return topo;
}

std::string ScenarioSpec::Validate() const {
  std::ostringstream os;
  if (!OneOf(app, kApps)) {
    os << "unknown app '" << app << "' (" << Options(kApps) << ")";
  } else if (!OneOf(profile, kProfiles)) {
    os << "unknown profile '" << profile << "' (" << Options(kProfiles) << ")";
  } else if (QdiscType q; !ParseQdisc(qdisc, &q)) {
    os << "unknown qdisc '" << qdisc << "' (pfifo_fast|codel|fq_codel|pie|red)";
  } else if (!OneOf(cc, kCcs)) {
    os << "unknown cc '" << cc << "' (" << Options(kCcs) << ")";
  } else if (!OneOf(element_mode, kElementModes)) {
    os << "unknown element_mode '" << element_mode << "' (" << Options(kElementModes) << ")";
  } else if (duration_s <= 0.0) {
    os << "duration_s must be positive, got " << duration_s;
  } else if (warmup_s < 0.0 || warmup_s >= duration_s) {
    os << "warmup_s must be in [0, duration_s), got " << warmup_s;
  } else if (num_flows < 1) {
    os << "num_flows must be >= 1, got " << num_flows;
  } else if (background_flows < 0) {
    os << "background_flows must be >= 0, got " << background_flows;
  } else if (!(tracker_period_ms * 1e6 >= 1.0)) {
    // The drivers truncate the period to whole nanoseconds; 0 ns would spin.
    os << "tracker_period_ms must be at least 1e-6 (one nanosecond), got " << tracker_period_ms;
  } else if (rate_mbps <= 0.0) {
    os << "rate_mbps must be positive, got " << rate_mbps;
  } else if (queue_packets < 0) {
    os << "queue_packets must be >= 0 (0 sizes the queue automatically), got " << queue_packets;
  } else if (rtt_ms <= 0.0) {
    os << "rtt_ms must be positive, got " << rtt_ms;
  } else if (loss < 0.0 || loss >= 1.0) {
    os << "loss must be in [0, 1), got " << loss;
  } else if (!OneOf(topology, kTopologies)) {
    os << "unknown topology '" << topology << "' (" << Options(kTopologies) << ")";
  } else if (hops < 1 || hops > 16) {
    os << "hops must be in [1, 16], got " << hops;
  } else if (host_pairs < 0) {
    os << "host_pairs must be >= 0, got " << host_pairs;
  } else if (cross_iperf < 0 || cross_onoff < 0) {
    os << "cross_iperf/cross_onoff must be >= 0";
  } else if (topology != "none") {
    if (topology == "dumbbell" && hops != 1) {
      os << "dumbbell topology is single-hop; set hops via topology=parking_lot";
    } else if (app != "legacy") {
      os << "topology runs use app=legacy (got '" << app << "')";
    } else if (profile != "wired") {
      os << "topology runs use profile=wired (got '" << profile << "')";
    } else if (element_mode == "wireless") {
      os << "element_mode=wireless is single-path only";
    } else if (download) {
      os << "download is single-path only";
    } else if (loss > 0.0) {
      os << "loss is single-path only";
    }
  } else if (cross_iperf > 0 || cross_onoff > 0) {
    os << "cross traffic needs a topology";
  }
  return os.str();
}

json::Value ScenarioSpec::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("name", json::Value::Str(name));
  obj.Set("app", json::Value::Str(app));
  obj.Set("profile", json::Value::Str(profile));
  obj.Set("rate_mbps", json::Value::Number(rate_mbps));
  obj.Set("rtt_ms", json::Value::Number(rtt_ms));
  obj.Set("queue_packets", json::Value::Int(queue_packets));
  obj.Set("ecn", json::Value::Bool(ecn));
  obj.Set("loss", json::Value::Number(loss));
  obj.Set("qdisc", json::Value::Str(qdisc));
  obj.Set("cc", json::Value::Str(cc));
  obj.Set("topology", json::Value::Str(topology));
  obj.Set("hops", json::Value::Int(hops));
  obj.Set("host_pairs", json::Value::Int(host_pairs));
  obj.Set("cross_iperf", json::Value::Int(cross_iperf));
  obj.Set("cross_onoff", json::Value::Int(cross_onoff));
  obj.Set("num_flows", json::Value::Int(num_flows));
  obj.Set("element_mode", json::Value::Str(element_mode));
  obj.Set("download", json::Value::Bool(download));
  obj.Set("duration_s", json::Value::Number(duration_s));
  obj.Set("warmup_s", json::Value::Number(warmup_s));
  obj.Set("tracker_period_ms", json::Value::Number(tracker_period_ms));
  obj.Set("background_flows", json::Value::Int(background_flows));
  obj.Set("seed", json::Value::Int(static_cast<int64_t>(seed)));
  return obj;
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

// Applies the scalar spec fields present in `obj` onto `spec`. Axis keys that
// hold arrays (sweep form) are skipped when `skip_arrays`; any other unknown
// key is an error so suite typos fail loudly.
bool ApplySpecFields(const json::Value& obj, ScenarioSpec* spec, bool skip_arrays,
                     std::string* error) {
  for (const auto& [key, v] : obj.fields()) {
    if (skip_arrays && v.is_array() &&
        (key == "qdisc" || key == "cc" || key == "profile" || key == "topology" ||
         key == "rate_mbps" || key == "rtt_ms" || key == "num_flows" || key == "cross_iperf" ||
         key == "cross_onoff")) {
      continue;
    }
    if (skip_arrays && key == "seed" && v.is_object()) {
      continue;
    }
    bool ok = false;
    if (key == "name") {
      ok = Read(v, key, &spec->name, error);
    } else if (key == "app") {
      ok = Read(v, key, &spec->app, error);
    } else if (key == "profile") {
      ok = Read(v, key, &spec->profile, error);
    } else if (key == "rate_mbps") {
      ok = Read(v, key, &spec->rate_mbps, error);
    } else if (key == "rtt_ms") {
      ok = Read(v, key, &spec->rtt_ms, error);
    } else if (key == "queue_packets") {
      ok = Read(v, key, &spec->queue_packets, error);
    } else if (key == "ecn") {
      ok = Read(v, key, &spec->ecn, error);
    } else if (key == "loss") {
      ok = Read(v, key, &spec->loss, error);
    } else if (key == "qdisc") {
      ok = Read(v, key, &spec->qdisc, error);
    } else if (key == "cc") {
      ok = Read(v, key, &spec->cc, error);
    } else if (key == "num_flows") {
      ok = Read(v, key, &spec->num_flows, error);
    } else if (key == "topology") {
      ok = Read(v, key, &spec->topology, error);
    } else if (key == "hops") {
      ok = Read(v, key, &spec->hops, error);
    } else if (key == "host_pairs") {
      ok = Read(v, key, &spec->host_pairs, error);
    } else if (key == "cross_iperf") {
      ok = Read(v, key, &spec->cross_iperf, error);
    } else if (key == "cross_onoff") {
      ok = Read(v, key, &spec->cross_onoff, error);
    } else if (key == "element_mode") {
      ok = Read(v, key, &spec->element_mode, error);
    } else if (key == "download") {
      ok = Read(v, key, &spec->download, error);
    } else if (key == "duration_s") {
      ok = Read(v, key, &spec->duration_s, error);
    } else if (key == "warmup_s") {
      ok = Read(v, key, &spec->warmup_s, error);
    } else if (key == "tracker_period_ms") {
      ok = Read(v, key, &spec->tracker_period_ms, error);
    } else if (key == "background_flows") {
      ok = Read(v, key, &spec->background_flows, error);
    } else if (key == "seed") {
      ok = Read(v, key, &spec->seed, error);
    } else {
      *error = "unknown scenario field '" + key + "'";
    }
    if (!ok) {
      return false;
    }
  }
  return true;
}

// Reads a sweep axis (absent or non-array: empty) item by item.
template <typename T>
bool ReadAxis(const json::Value& sweep, const std::string& key, std::vector<T>* out,
              std::string* error) {
  const json::Value* v = sweep.Find(key);
  if (v == nullptr || !v->is_array()) {
    return true;
  }
  for (size_t i = 0; i < v->items().size(); ++i) {
    T item;
    if (!Read(v->items()[i], key + "[" + std::to_string(i) + "]", &item, error)) {
      return false;
    }
    out->push_back(item);
  }
  return true;
}

}  // namespace

std::vector<ScenarioSpec> SweepSpec::Expand() const {
  // Empty axes iterate once with the base value.
  auto or_base = [](std::vector<std::string> axis, const std::string& base_value) {
    if (axis.empty()) {
      axis.push_back(base_value);
    }
    return axis;
  };
  auto int_or_base = [](std::vector<int> axis, int base_value) {
    if (axis.empty()) {
      axis.push_back(base_value);
    }
    return axis;
  };
  std::vector<std::string> axis_profiles = or_base(profiles, base.profile);
  std::vector<std::string> axis_topologies = or_base(topologies, base.topology);
  std::vector<std::string> axis_qdiscs = or_base(qdiscs, base.qdisc);
  std::vector<std::string> axis_ccs = or_base(ccs, base.cc);
  std::vector<double> axis_rates = rates_mbps.empty() ? std::vector<double>{base.rate_mbps}
                                                      : rates_mbps;
  std::vector<double> axis_rtts = rtts_ms.empty() ? std::vector<double>{base.rtt_ms} : rtts_ms;
  std::vector<int> axis_flows = int_or_base(flow_counts, base.num_flows);
  std::vector<int> axis_cross_iperfs = int_or_base(cross_iperfs, base.cross_iperf);
  std::vector<int> axis_cross_onoffs = int_or_base(cross_onoffs, base.cross_onoff);

  std::string stem = base.name.empty() ? "sweep" : base.name;
  std::vector<ScenarioSpec> out;
  out.reserve(axis_profiles.size() * axis_topologies.size() * axis_rates.size() *
              axis_rtts.size() * axis_qdiscs.size() * axis_ccs.size() * axis_flows.size() *
              axis_cross_iperfs.size() * axis_cross_onoffs.size() *
              static_cast<size_t>(std::max(1, seed_count)));
  for (const std::string& profile : axis_profiles) {
    for (const std::string& topology : axis_topologies) {
      for (double rate : axis_rates) {
        for (double rtt : axis_rtts) {
          for (const std::string& qdisc : axis_qdiscs) {
            for (const std::string& cc : axis_ccs) {
              for (int flows : axis_flows) {
                for (int ci : axis_cross_iperfs) {
                  for (int co : axis_cross_onoffs) {
                    ScenarioSpec spec = base;
                    spec.profile = profile;
                    spec.topology = topology;
                    spec.rate_mbps = rate;
                    spec.rtt_ms = rtt;
                    spec.qdisc = qdisc;
                    spec.cc = cc;
                    spec.num_flows = flows;
                    spec.cross_iperf = ci;
                    spec.cross_onoff = co;
                    std::string label = stem;
                    if (profiles.size() > 1) {
                      label += "/" + profile;
                    }
                    if (topologies.size() > 1) {
                      label += "/" + topology;
                    }
                    if (rates_mbps.size() > 1) {
                      label += "/" + json::FormatNumber(rate) + "mbps";
                    }
                    if (rtts_ms.size() > 1) {
                      label += "/" + json::FormatNumber(rtt) + "ms";
                    }
                    if (qdiscs.size() > 1) {
                      label += "/" + qdisc;
                    }
                    if (ccs.size() > 1) {
                      label += "/" + cc;
                    }
                    if (flow_counts.size() > 1) {
                      label += "/" + std::to_string(flows) + "f";
                    }
                    if (cross_iperfs.size() > 1) {
                      label += "/ci" + std::to_string(ci);
                    }
                    if (cross_onoffs.size() > 1) {
                      label += "/co" + std::to_string(co);
                    }
                    spec.name = label;
                    for (int k = 0; k < std::max(1, seed_count); ++k) {
                      spec.seed = seed_base + static_cast<uint64_t>(k);
                      out.push_back(spec);
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

bool ScenarioSuite::ParseJson(const std::string& text, ScenarioSuite* out, std::string* error) {
  json::Value doc;
  if (!json::Value::Parse(text, &doc, error)) {
    return false;
  }
  if (!doc.is_object()) {
    *error = "suite document must be a JSON object";
    return false;
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
    if (!ApplySpecFields(*v, &defaults, /*skip_arrays=*/false, error)) {
      return false;
    }
  }
  if (const json::Value* v = doc.Find("scenarios")) {
    if (!v->is_array()) {
      *error = "'scenarios' must be an array";
      return false;
    }
    for (size_t i = 0; i < v->items().size(); ++i) {
      ScenarioSpec spec = defaults;
      if (!ApplySpecFields(v->items()[i], &spec, /*skip_arrays=*/false, error)) {
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
    for (const json::Value& entry : v->items()) {
      SweepSpec sweep;
      sweep.base = defaults;
      if (!ApplySpecFields(entry, &sweep.base, /*skip_arrays=*/true, error)) {
        return false;
      }
      if (!ReadAxis(entry, "qdisc", &sweep.qdiscs, error) ||
          !ReadAxis(entry, "cc", &sweep.ccs, error) ||
          !ReadAxis(entry, "profile", &sweep.profiles, error) ||
          !ReadAxis(entry, "topology", &sweep.topologies, error) ||
          !ReadAxis(entry, "rate_mbps", &sweep.rates_mbps, error) ||
          !ReadAxis(entry, "rtt_ms", &sweep.rtts_ms, error) ||
          !ReadAxis(entry, "num_flows", &sweep.flow_counts, error) ||
          !ReadAxis(entry, "cross_iperf", &sweep.cross_iperfs, error) ||
          !ReadAxis(entry, "cross_onoff", &sweep.cross_onoffs, error)) {
        return false;
      }
      sweep.seed_base = sweep.base.seed;
      if (const json::Value* seed = entry.Find("seed"); seed != nullptr && seed->is_object()) {
        const json::Value* b = seed->Find("base");
        const json::Value* c = seed->Find("count");
        if ((b != nullptr && !Read(*b, "seed.base", &sweep.seed_base, error)) ||
            (c != nullptr && !Read(*c, "seed.count", &sweep.seed_count, error))) {
          return false;
        }
      }
      std::vector<ScenarioSpec> expanded = sweep.Expand();
      suite.scenarios.insert(suite.scenarios.end(), expanded.begin(), expanded.end());
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

std::string ScenarioSuite::ToJson() const {
  json::Value doc = json::Value::Object();
  doc.Set("suite", json::Value::Str(name));
  json::Value list = json::Value::Array();
  for (const ScenarioSpec& spec : scenarios) {
    list.Append(spec.ToJson());
  }
  doc.Set("scenarios", std::move(list));
  return doc.Dump();
}

void ScenarioSuite::OffsetSeeds(uint64_t offset) {
  for (ScenarioSpec& spec : scenarios) {
    spec.seed += offset;
  }
}

}  // namespace element
