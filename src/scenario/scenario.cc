#include "scenario/scenario.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <variant>

#include "sim/cost_model.h"

namespace tornado {
namespace scenario {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The largest integer the double-based JSON codec holds exactly (2^53).
/// An integer field with no tighter upper bound is capped here, so a
/// value such as 1e30 is rejected instead of cast out of range.
constexpr double kMaxExactInteger = 9007199254740992.0;

/// The accepted range of a numeric field; an infinite end is unbounded.
/// The validator's message is derived from it ("must be > 0", "must be
/// in [1, 256]"), so the range is the one statement of each bound.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;  // lo itself is rejected
  bool hi_open = false;  // hi itself is rejected
};
constexpr Range kPositive{.lo = 0, .lo_open = true};
constexpr Range kNonNegative{.lo = 0};
constexpr Range In(double lo, double hi) { return {.lo = lo, .hi = hi}; }
constexpr Range AtMost(double hi) { return {.hi = hi}; }

std::string BoundText(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string RangeMessage(const Range& r) {
  if (r.lo == -kInf) {
    return (r.hi_open ? "must be < " : "must be <= ") + BoundText(r.hi);
  }
  if (r.hi == kInf) {
    return (r.lo_open ? "must be > " : "must be >= ") + BoundText(r.lo);
  }
  return std::string("must be in ") + (r.lo_open ? "(" : "[") +
         BoundText(r.lo) + ", " + BoundText(r.hi) + (r.hi_open ? ")" : "]");
}

/// One member of a schema object: its JSON key, the struct member it
/// lands in, and the accepted range of a numeric value. The member's type
/// selects the JSON type: bool, an unsigned integer, a double, or (for
/// timeline operands) a node reference or an array of them.
template <typename S>
struct Field {
  const char* key;
  std::variant<bool S::*, uint32_t S::*, uint64_t S::*, double S::*,
               NodeRef S::*, std::vector<NodeRef> S::*>
      member;
  Range range = {};
};

// Each section's fields, in the order they are read (so the order their
// errors are reported in) and written.

const Field<Scenario> kTopFields[] = {
    {"seed", &Scenario::seed},
};

const Field<ScenarioCluster> kClusterFields[] = {
    {"processors", &ScenarioCluster::processors, In(1, 256)},
    {"hosts", &ScenarioCluster::hosts, In(1, 256)},
};

const Field<ScenarioWorkload> kWorkloadFields[] = {
    {"tuples", &ScenarioWorkload::tuples, In(100, 10000000)},
    {"rate", &ScenarioWorkload::rate, kPositive},
    {"batch", &ScenarioWorkload::batch, In(1, 100000)},
    {"batch_mode", &ScenarioWorkload::batch_mode},
    {"stream_seed", &ScenarioWorkload::stream_seed},
};

const Field<ScenarioConsistency> kConsistencyFields[] = {
    {"delay_bound", &ScenarioConsistency::delay_bound, In(1, 1000000)},
};

const Field<ScenarioDrive> kDriveFields[] = {
    {"warmup_tuples", &ScenarioDrive::warmup_tuples},
    {"warmup_timeout", &ScenarioDrive::warmup_timeout, kPositive},
    {"pause_ingest", &ScenarioDrive::pause_ingest},
    {"settle_seconds", &ScenarioDrive::settle_seconds, kNonNegative},
    {"query_at_start", &ScenarioDrive::query_at_start},
    {"sample_start_seconds", &ScenarioDrive::sample_start_seconds,
     kNonNegative},
    {"bucket_seconds", &ScenarioDrive::bucket_seconds, kPositive},
    {"sample_count", &ScenarioDrive::sample_count, AtMost(100000)},
    {"wait_for_query", &ScenarioDrive::wait_for_query},
    {"query_timeout", &ScenarioDrive::query_timeout, kPositive},
};

const Field<ScenarioChaos> kChaosFields[] = {
    {"commit_regression_after", &ScenarioChaos::commit_regression_after,
     kNonNegative},
};

/// The CostModel fields a scenario may override, in declaration order.
/// `fuzzed` marks the knobs MutateScenario perturbs.
struct CostField {
  const char* name;
  double CostModel::* member;
  Range range;
  bool fuzzed;
};
const CostField kCostFields[] = {
    {"net_latency", &CostModel::net_latency, kPositive, true},
    {"net_jitter", &CostModel::net_jitter,
     {.lo = 0, .hi = 1, .hi_open = true}, false},
    {"nic_wire_time", &CostModel::nic_wire_time, kPositive, true},
    {"local_latency", &CostModel::local_latency, kPositive, false},
    {"per_message_cpu", &CostModel::per_message_cpu, kPositive, true},
    {"per_update_cpu", &CostModel::per_update_cpu, kPositive, true},
    {"store_write_cost", &CostModel::store_write_cost, kPositive, false},
    {"flush_base_cost", &CostModel::flush_base_cost, kPositive, true},
    {"flush_per_version", &CostModel::flush_per_version, kPositive, false},
    {"ack_timeout", &CostModel::ack_timeout, kPositive, true},
    {"ack_timeout_max", &CostModel::ack_timeout_max, kPositive, false},
    {"progress_period", &CostModel::progress_period, kPositive, false},
};

struct WorkloadName {
  const char* name;
  ScenarioWorkload::Kind kind;
};
const WorkloadName kWorkloadKinds[] = {
    {"sssp", ScenarioWorkload::Kind::kSssp},
    {"pagerank", ScenarioWorkload::Kind::kPageRank},
    {"kmeans", ScenarioWorkload::Kind::kKMeans},
    {"sgd_svm", ScenarioWorkload::Kind::kSgdSvm},
    {"sgd_lr", ScenarioWorkload::Kind::kSgdLr},
};

/// Every timeline action has a required `at`, read before its name is
/// looked up, then the operands its row selects from kOperands.
const Field<TimelineAction> kAtField = {"at", &TimelineAction::at,
                                        kNonNegative};
const Field<TimelineAction> kOperands[] = {
    {"node", &TimelineAction::node},
    {"src", &TimelineAction::src},
    {"dst", &TimelineAction::dst},
    {"side", &TimelineAction::side},
    {"downtime", &TimelineAction::downtime, kPositive},
    {"factor", &TimelineAction::factor, kPositive},
    {"rate", &TimelineAction::rate, kPositive},
};

/// An action's operand set: bit i selects kOperands[i]. Every operand an
/// action takes is required, and src and dst must differ.
enum Operand : unsigned {
  kNode = 1u << 0,
  kLink = 1u << 1 | 1u << 2,  // src and dst
  kSide = 1u << 3,
  kDowntime = 1u << 4,
  kFactor = 1u << 5,
  kRate = 1u << 6,
};

struct ActionRow {
  const char* name;
  TimelineAction::Kind kind;
  unsigned operands;
};
const ActionRow kActions[] = {
    {"kill", TimelineAction::Kind::kKill, kNode},
    {"recover", TimelineAction::Kind::kRecover, kNode},
    {"crash_restart", TimelineAction::Kind::kCrashRestart, kNode | kDowntime},
    {"drop_link", TimelineAction::Kind::kDropLink, kLink},
    {"restore_link", TimelineAction::Kind::kRestoreLink, kLink},
    {"partition", TimelineAction::Kind::kPartition, kSide},
    {"heal_partition", TimelineAction::Kind::kHealPartition, kSide},
    {"slow_node", TimelineAction::Kind::kSlowNode, kNode | kFactor},
    {"restore_speed", TimelineAction::Kind::kRestoreSpeed, kNode},
    {"set_rate", TimelineAction::Kind::kSetRate, kRate},
    {"restore_rate", TimelineAction::Kind::kRestoreRate, 0},
};

/// Where validation errors go, as "path: message" lines (the validator
/// keeps going, so one pass reports every problem in the document), and
/// the cluster shape node references are checked against.
struct Context {
  std::vector<std::string>* errors;
  const ScenarioCluster* cluster;

  void Error(const std::string& path, const std::string& message) const {
    errors->push_back(path + ": " + message);
  }
};

// Check() validates one JSON value for a member of type T, reporting at
// `path`; on success it stores the value and returns true, otherwise the
// member keeps its default.

bool Check(const JsonValue& v, const std::string& path, const Range&,
           const Context& ctx, bool* out) {
  if (!v.is_bool()) {
    ctx.Error(path, "expected boolean");
    return false;
  }
  *out = v.bool_value;
  return true;
}

bool Check(const JsonValue& v, const std::string& path, const Range& range,
           const Context& ctx, double* out) {
  if (!v.is_number()) {
    ctx.Error(path, "expected number");
    return false;
  }
  if (!(range.lo_open ? v.number > range.lo : v.number >= range.lo) ||
      !(range.hi_open ? v.number < range.hi : v.number <= range.hi)) {
    ctx.Error(path, RangeMessage(range));
    return false;
  }
  *out = v.number;
  return true;
}

template <std::unsigned_integral T>
bool Check(const JsonValue& v, const std::string& path, Range range,
           const Context& ctx, T* out) {
  if (!v.is_number() || v.number != std::floor(v.number) || v.number < 0) {
    ctx.Error(path, "expected non-negative integer");
    return false;
  }
  range.hi = std::min(range.hi, kMaxExactInteger);
  double number = 0.0;
  if (!Check(v, path, range, ctx, &number)) return false;
  *out = static_cast<T>(number);
  return true;
}

bool ParseNodeRefString(const std::string& text, NodeRef* out) {
  if (text == "master" || text == "ingester") {
    *out = {text == "master" ? NodeRef::Kind::kMaster
                             : NodeRef::Kind::kIngester,
            0};
    return true;
  }
  constexpr std::string_view kPrefix = "processor:";
  if (!text.starts_with(kPrefix)) return false;
  const char* end = text.data() + text.size();
  uint32_t index = 0;
  const auto [rest, ec] =
      std::from_chars(text.data() + kPrefix.size(), end, index);
  if (ec != std::errc() || rest != end) return false;
  *out = {NodeRef::Kind::kProcessor, index};
  return true;
}

/// A node reference, bounds-checked against the cluster shape; `hint`
/// names the accepted spellings in a syntax error.
bool CheckNodeRef(const JsonValue& v, const std::string& path,
                  const Context& ctx, bool hint, NodeRef* out) {
  const std::string spellings = "\"processor:N\", \"master\" or \"ingester\"";
  if (!v.is_string()) {
    ctx.Error(path, "expected node reference string" +
                        (hint ? " (" + spellings + ")" : ""));
    return false;
  }
  NodeRef ref;
  if (!ParseNodeRefString(v.string_value, &ref)) {
    ctx.Error(path, "invalid node reference \"" + v.string_value + "\"" +
                        (hint ? " (want " + spellings + ")" : ""));
    return false;
  }
  if (ref.kind == NodeRef::Kind::kProcessor &&
      ref.index >= ctx.cluster->processors) {
    ctx.Error(path, "processor index " + std::to_string(ref.index) +
                        " out of range (cluster has " +
                        std::to_string(ctx.cluster->processors) +
                        " processors)");
    return false;
  }
  *out = ref;
  return true;
}

bool Check(const JsonValue& v, const std::string& path, const Range&,
           const Context& ctx, NodeRef* out) {
  return CheckNodeRef(v, path, ctx, /*hint=*/true, out);
}

/// A partition side: a non-empty array of node references.
bool Check(const JsonValue& v, const std::string& path, const Range&,
           const Context& ctx, std::vector<NodeRef>* out) {
  if (!v.is_array() || v.array.empty()) {
    ctx.Error(path, "expected non-empty array");
    return false;
  }
  for (size_t i = 0; i < v.array.size(); ++i) {
    NodeRef ref;
    if (CheckNodeRef(v.array[i], path + "[" + std::to_string(i) + "]", ctx,
                     /*hint=*/false, &ref)) {
      out->push_back(ref);
    }
  }
  return true;
}

JsonValue ToJson(bool b) { return JsonValue::Of(b); }
JsonValue ToJson(double d) { return JsonValue::Of(d); }
JsonValue ToJson(std::unsigned_integral auto n) {
  return JsonValue::Of(static_cast<double>(n));
}
JsonValue ToJson(const NodeRef& ref) { return JsonValue::Of(ref.ToString()); }
JsonValue ToJson(const std::vector<NodeRef>& refs) {
  JsonValue array = JsonValue::MakeArray();
  for (const NodeRef& ref : refs) array.array.push_back(ToJson(ref));
  return array;
}

template <typename S>
void WriteField(const Field<S>& field, const S& in, JsonValue* out) {
  std::visit([&](auto member) { out->Add(field.key, ToJson(in.*member)); },
             field.member);
}

template <typename S, size_t N>
JsonValue WriteFields(const Field<S> (&fields)[N], const S& in,
                      JsonValue out = JsonValue::MakeObject()) {
  for (const Field<S>& field : fields) WriteField(field, in, &out);
  return out;
}

/// Typed member access over one JSON object with dotted-path error
/// reporting and strict unknown-field rejection.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& value, std::string path, const Context* ctx)
      : value_(value), path_(std::move(path)), ctx_(ctx) {
    if (!value_.is_object()) {
      ctx_->Error(path_, "expected object");
      valid_ = false;
    }
  }

  bool valid() const { return valid_; }
  const Context& ctx() const { return *ctx_; }

  /// The member `key`, marked as known; nullptr when absent (reported
  /// when `required`).
  const JsonValue* Take(const std::string& key, bool required = false) {
    if (!valid_) return nullptr;
    claimed_.push_back(key);
    const JsonValue* v = value_.Find(key);
    if (v == nullptr && required) Error(key, "missing required field");
    return v;
  }

  std::string MemberPath(const std::string& key) const {
    return path_ + "." + key;
  }

  void Error(const std::string& key, const std::string& message) const {
    ctx_->Error(MemberPath(key), message);
  }

  /// Reports any member not taken by the section parser.
  void RejectUnknown() const {
    if (!valid_) return;
    for (const auto& [key, unused] : value_.object) {
      (void)unused;
      if (std::ranges::find(claimed_, key) == claimed_.end()) {
        Error(key, "unknown field");
      }
    }
  }

  void ReadString(const std::string& key, std::string* out,
                  bool required = false) {
    const JsonValue* v = Take(key, required);
    if (v == nullptr) return;
    if (!v->is_string()) {
      Error(key, "expected string");
      return;
    }
    *out = v->string_value;
  }

  template <typename S>
  void Read(const Field<S>& field, S* out, bool required = false) {
    const JsonValue* v = Take(field.key, required);
    if (v == nullptr) return;
    std::visit(
        [&](auto member) {
          Check(*v, MemberPath(field.key), field.range, *ctx_, &(out->*member));
        },
        field.member);
  }

  template <typename S, size_t N>
  void Read(const Field<S> (&fields)[N], S* out) {
    for (const Field<S>& field : fields) Read(field, out);
  }

 private:
  const JsonValue& value_;
  std::string path_;
  const Context* ctx_;
  std::vector<std::string> claimed_;
  bool valid_ = true;
};

/// Reads the object member `key` of `parent` with `body`, then rejects
/// its unknown members. An absent section keeps its defaults.
template <typename Body>
void ReadSection(ObjectReader* parent, const char* key, bool required,
                 Body body) {
  const JsonValue* v = parent->Take(key, required);
  if (v == nullptr) return;
  ObjectReader section(*v, parent->MemberPath(key), &parent->ctx());
  if (!section.valid()) return;
  body(&section);
  section.RejectUnknown();
}

void ReadSpeeds(ObjectReader* reader, ScenarioCluster* out) {
  const JsonValue* speeds = reader->Take("processor_speeds");
  if (speeds == nullptr) return;
  if (!speeds->is_array()) {
    reader->Error("processor_speeds", "expected array");
    return;
  }
  if (speeds->array.size() > out->processors) {
    reader->Error("processor_speeds", "more entries than processors");
    return;
  }
  for (size_t i = 0; i < speeds->array.size(); ++i) {
    double speed = 0.0;
    if (Check(speeds->array[i],
              reader->MemberPath("processor_speeds") + "[" +
                  std::to_string(i) + "]",
              kPositive, reader->ctx(), &speed)) {
      out->processor_speeds.push_back(speed);
    }
  }
}

void ReadCost(ObjectReader* reader, std::map<std::string, double>* out) {
  for (const CostField& field : kCostFields) {
    const JsonValue* v = reader->Take(field.name);
    double value = 0.0;
    if (v != nullptr && Check(*v, reader->MemberPath(field.name), field.range,
                              reader->ctx(), &value)) {
      (*out)[field.name] = value;
    }
  }
}

void ReadWorkloadKind(ObjectReader* reader, ScenarioWorkload::Kind* out) {
  std::string kind;
  reader->ReadString("kind", &kind, /*required=*/true);
  const auto* row = std::ranges::find(kWorkloadKinds, kind,
                                      &WorkloadName::name);
  if (row != std::end(kWorkloadKinds)) {
    *out = row->kind;
  } else if (!kind.empty()) {
    std::string want;
    const size_t n = std::size(kWorkloadKinds);
    for (size_t i = 0; i < n; ++i) {
      want += (i == 0 ? "" : i + 1 < n ? ", " : " or ") +
              std::string(kWorkloadKinds[i].name);
    }
    reader->Error("kind",
                  "unknown workload \"" + kind + "\" (want " + want + ")");
  }
}

void ReadAction(const JsonValue& value, const std::string& path,
                const Context& ctx, TimelineAction* out) {
  ObjectReader reader(value, path, &ctx);
  if (!reader.valid()) return;
  std::string name;
  reader.ReadString("action", &name, /*required=*/true);
  reader.Read(kAtField, out, /*required=*/true);
  const auto* row = std::ranges::find(kActions, name, &ActionRow::name);
  if (row != std::end(kActions)) {
    out->kind = row->kind;
    for (size_t i = 0; i < std::size(kOperands); ++i) {
      if (row->operands & (1u << i)) {
        reader.Read(kOperands[i], out, /*required=*/true);
      }
    }
    if ((row->operands & kLink) && value.Find("src") != nullptr &&
        value.Find("dst") != nullptr && out->src == out->dst) {
      ctx.Error(path, "src and dst must differ");
    }
  } else if (!name.empty()) {
    reader.Error("action", "unknown action \"" + name + "\"");
  }
  reader.RejectUnknown();
}

JsonValue WriteAction(const TimelineAction& a) {
  JsonValue action = JsonValue::MakeObject();
  action.Add("action", JsonValue::Of(std::string(ActionKindName(a.kind))));
  WriteField(kAtField, a, &action);
  const auto* row = std::ranges::find(kActions, a.kind, &ActionRow::kind);
  const unsigned operands = row != std::end(kActions) ? row->operands : 0;
  for (size_t i = 0; i < std::size(kOperands); ++i) {
    if (operands & (1u << i)) WriteField(kOperands[i], a, &action);
  }
  return action;
}

void ParseProvenanceSection(const JsonValue& value, const std::string& path,
                            const Context& ctx,
                            std::map<std::string, std::string>* out) {
  // Free-form string map: any keys, string values only.
  if (!value.is_object()) {
    ctx.Error(path, "expected object");
    return;
  }
  for (const auto& [key, v] : value.object) {
    if (!v.is_string()) {
      ctx.Error(path + "." + key, "expected string");
      continue;
    }
    (*out)[key] = v.string_value;
  }
}

}  // namespace

std::string NodeRef::ToString() const {
  switch (kind) {
    case Kind::kMaster:
      return "master";
    case Kind::kIngester:
      return "ingester";
    case Kind::kProcessor:
      return "processor:" + std::to_string(index);
  }
  return "?";
}

const char* WorkloadKindName(ScenarioWorkload::Kind kind) {
  const auto* row = std::ranges::find(kWorkloadKinds, kind,
                                      &WorkloadName::kind);
  return row != std::end(kWorkloadKinds) ? row->name : "?";
}

const char* ActionKindName(TimelineAction::Kind kind) {
  const auto* row = std::ranges::find(kActions, kind, &ActionRow::kind);
  return row != std::end(kActions) ? row->name : "?";
}

std::vector<CostKnob> FuzzedCostKnobs() {
  const CostModel defaults;
  std::vector<CostKnob> knobs;
  for (const CostField& field : kCostFields) {
    if (field.fuzzed) knobs.push_back({field.name, defaults.*(field.member)});
  }
  return knobs;
}

bool ParseScenario(const JsonValue& root, Scenario* out,
                   std::vector<std::string>* errors) {
  errors->clear();
  *out = Scenario();
  const Context ctx{errors, &out->cluster};
  ObjectReader reader(root, "scenario", &ctx);
  if (!reader.valid()) return false;

  reader.ReadString("name", &out->name, /*required=*/true);
  for (char c : out->name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-') {
      ctx.Error("scenario.name",
                "must contain only [A-Za-z0-9_-] (used as a test name)");
      break;
    }
  }
  reader.ReadString("description", &out->description);
  reader.Read(kTopFields, out);

  // Cluster first: node references downstream validate against its shape.
  ReadSection(&reader, "cluster", false, [&](ObjectReader* section) {
    section->Read(kClusterFields, &out->cluster);
    ReadSpeeds(section, &out->cluster);
  });
  ReadSection(&reader, "cost", false,
              [&](ObjectReader* section) { ReadCost(section, &out->cost); });
  ReadSection(&reader, "workload", true, [&](ObjectReader* section) {
    ReadWorkloadKind(section, &out->workload.kind);
    section->Read(kWorkloadFields, &out->workload);
  });
  ReadSection(&reader, "consistency", false, [&](ObjectReader* section) {
    section->Read(kConsistencyFields, &out->consistency);
  });
  ReadSection(&reader, "drive", false, [&](ObjectReader* section) {
    section->Read(kDriveFields, &out->drive);
  });
  if (const JsonValue* v = reader.Take("timeline")) {
    if (!v->is_array()) {
      ctx.Error("scenario.timeline", "expected array");
    } else {
      for (size_t i = 0; i < v->array.size(); ++i) {
        TimelineAction action;
        ReadAction(v->array[i], "scenario.timeline[" + std::to_string(i) + "]",
                   ctx, &action);
        out->timeline.push_back(std::move(action));
      }
    }
  }
  ReadSection(&reader, "chaos", false, [&](ObjectReader* section) {
    section->Read(kChaosFields, &out->chaos);
  });
  if (const JsonValue* v = reader.Take("provenance")) {
    ParseProvenanceSection(*v, "scenario.provenance", ctx, &out->provenance);
  }

  // Cross-section checks.
  if (out->drive.warmup_tuples > out->workload.tuples) {
    ctx.Error("scenario.drive.warmup_tuples",
              "exceeds scenario.workload.tuples (" +
                  std::to_string(out->workload.tuples) + ")");
  }
  if (out->cluster.hosts > out->cluster.processors) {
    ctx.Error("scenario.cluster.hosts", "must be <= processors");
  }

  reader.RejectUnknown();
  return errors->empty();
}

bool ParseScenarioText(const std::string& text, Scenario* out,
                       std::vector<std::string>* errors) {
  errors->clear();
  JsonValue root;
  std::string parse_error;
  if (!JsonParse(text, &root, &parse_error)) {
    errors->push_back("scenario: JSON parse error at " + parse_error);
    return false;
  }
  return ParseScenario(root, out, errors);
}

bool LoadScenarioFile(const std::string& path, Scenario* out,
                      std::vector<std::string>* errors) {
  errors->clear();
  std::ifstream in(path);
  if (!in.is_open()) {
    errors->push_back("scenario: cannot open " + path);
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseScenarioText(text.str(), out, errors);
}

JsonValue ScenarioToJson(const Scenario& s) {
  JsonValue root = JsonValue::MakeObject();
  root.Add("name", JsonValue::Of(s.name));
  if (!s.description.empty()) {
    root.Add("description", JsonValue::Of(s.description));
  }
  root = WriteFields(kTopFields, s, std::move(root));

  JsonValue cluster = WriteFields(kClusterFields, s.cluster);
  if (!s.cluster.processor_speeds.empty()) {
    JsonValue speeds = JsonValue::MakeArray();
    for (double v : s.cluster.processor_speeds) {
      speeds.array.push_back(JsonValue::Of(v));
    }
    cluster.Add("processor_speeds", std::move(speeds));
  }
  root.Add("cluster", std::move(cluster));

  if (!s.cost.empty()) {
    JsonValue cost = JsonValue::MakeObject();
    // Schema order, not map order, for stable diffs.
    for (const CostField& field : kCostFields) {
      auto it = s.cost.find(field.name);
      if (it != s.cost.end()) cost.Add(field.name, JsonValue::Of(it->second));
    }
    root.Add("cost", std::move(cost));
  }

  JsonValue workload = JsonValue::MakeObject();
  workload.Add("kind",
               JsonValue::Of(std::string(WorkloadKindName(s.workload.kind))));
  root.Add("workload",
           WriteFields(kWorkloadFields, s.workload, std::move(workload)));
  root.Add("consistency", WriteFields(kConsistencyFields, s.consistency));
  root.Add("drive", WriteFields(kDriveFields, s.drive));

  if (!s.timeline.empty()) {
    JsonValue timeline = JsonValue::MakeArray();
    for (const TimelineAction& a : s.timeline) {
      timeline.array.push_back(WriteAction(a));
    }
    root.Add("timeline", std::move(timeline));
  }

  if (s.chaos.commit_regression_after >= 0.0) {
    root.Add("chaos", WriteFields(kChaosFields, s.chaos));
  }

  if (!s.provenance.empty()) {
    JsonValue provenance = JsonValue::MakeObject();
    for (const auto& [key, value] : s.provenance) {
      provenance.Add(key, JsonValue::Of(value));
    }
    root.Add("provenance", std::move(provenance));
  }
  return root;
}

JobConfig ScenarioJobConfig(const Scenario& s) {
  JobConfig config;
  config.delay_bound = s.consistency.delay_bound;
  config.num_processors = s.cluster.processors;
  config.num_hosts = s.cluster.hosts;
  config.processor_speeds = s.cluster.processor_speeds;
  config.ingest_rate = s.workload.rate;
  config.ingest_batch = s.workload.batch;
  config.seed = s.seed;
  for (const CostField& field : kCostFields) {
    auto it = s.cost.find(field.name);
    if (it != s.cost.end()) config.cost.*(field.member) = it->second;
  }
  return config;
}

}  // namespace scenario
}  // namespace tornado
