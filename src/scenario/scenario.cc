#include "scenario/scenario.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/cost_model.h"

namespace tornado {
namespace scenario {

namespace {

/// The CostModel fields a scenario may override, in declaration order.
struct CostField {
  const char* name;
  double CostModel::* member;
};
constexpr CostField kCostFields[] = {
    {"net_latency", &CostModel::net_latency},
    {"net_jitter", &CostModel::net_jitter},
    {"nic_wire_time", &CostModel::nic_wire_time},
    {"local_latency", &CostModel::local_latency},
    {"per_message_cpu", &CostModel::per_message_cpu},
    {"per_update_cpu", &CostModel::per_update_cpu},
    {"store_write_cost", &CostModel::store_write_cost},
    {"flush_base_cost", &CostModel::flush_base_cost},
    {"flush_per_version", &CostModel::flush_per_version},
    {"ack_timeout", &CostModel::ack_timeout},
    {"ack_timeout_max", &CostModel::ack_timeout_max},
    {"progress_period", &CostModel::progress_period},
};

/// Collects validation errors as "path: message" lines and keeps going,
/// so one pass reports every problem in the document.
class Errors {
 public:
  explicit Errors(std::vector<std::string>* out) : out_(out) {}

  void Add(const std::string& path, const std::string& message) {
    out_->push_back(path + ": " + message);
  }
  bool ok() const { return out_->empty(); }

 private:
  std::vector<std::string>* out_;
};

/// Typed member access over one JSON object with dotted-path error
/// reporting and strict unknown-field rejection.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& value, std::string path, Errors* errors)
      : value_(value), path_(std::move(path)), errors_(errors) {
    if (!value_.is_object()) {
      errors_->Add(path_, "expected object");
      valid_ = false;
    }
  }

  bool valid() const { return valid_; }
  const std::string& path() const { return path_; }

  const JsonValue* Claim(const std::string& key) {
    if (!valid_) return nullptr;
    claimed_.push_back(key);
    return value_.Find(key);
  }

  std::string MemberPath(const std::string& key) const {
    return path_ + "." + key;
  }

  /// Reports any member not claimed by the section parser.
  void RejectUnknown() {
    if (!valid_) return;
    for (const auto& [key, unused] : value_.object) {
      (void)unused;
      bool known = false;
      for (const std::string& c : claimed_) {
        if (c == key) {
          known = true;
          break;
        }
      }
      if (!known) errors_->Add(MemberPath(key), "unknown field");
    }
  }

  void ReadString(const std::string& key, std::string* out,
                  bool required = false) {
    const JsonValue* v = Claim(key);
    if (v == nullptr) {
      if (required) errors_->Add(MemberPath(key), "missing required field");
      return;
    }
    if (!v->is_string()) {
      errors_->Add(MemberPath(key), "expected string");
      return;
    }
    *out = v->string_value;
  }

  void ReadBool(const std::string& key, bool* out) {
    const JsonValue* v = Claim(key);
    if (v == nullptr) return;
    if (!v->is_bool()) {
      errors_->Add(MemberPath(key), "expected boolean");
      return;
    }
    *out = v->bool_value;
  }

  /// A finite JSON number; range checks are the caller's.
  bool ReadDouble(const std::string& key, double* out) {
    const JsonValue* v = Claim(key);
    if (v == nullptr) return false;
    if (!v->is_number()) {
      errors_->Add(MemberPath(key), "expected number");
      return false;
    }
    *out = v->number;
    return true;
  }

  /// A non-negative integer-valued number (counts, seeds, indexes).
  bool ReadUint(const std::string& key, uint64_t* out) {
    const JsonValue* v = Claim(key);
    if (v == nullptr) return false;
    if (!v->is_number() || v->number != std::floor(v->number) ||
        v->number < 0) {
      errors_->Add(MemberPath(key), "expected non-negative integer");
      return false;
    }
    *out = static_cast<uint64_t>(v->number);
    return true;
  }

 private:
  const JsonValue& value_;
  std::string path_;
  Errors* errors_;
  std::vector<std::string> claimed_;
  bool valid_ = true;
};

bool ParseNodeRefString(const std::string& text, NodeRef* out) {
  if (text == "master") {
    out->kind = NodeRef::Kind::kMaster;
    out->index = 0;
    return true;
  }
  if (text == "ingester") {
    out->kind = NodeRef::Kind::kIngester;
    out->index = 0;
    return true;
  }
  const std::string prefix = "processor:";
  if (text.rfind(prefix, 0) == 0 && text.size() > prefix.size()) {
    uint64_t index = 0;
    for (size_t i = prefix.size(); i < text.size(); ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      index = index * 10 + static_cast<uint64_t>(text[i] - '0');
      if (index > 0xFFFFFFFFULL) return false;
    }
    out->kind = NodeRef::Kind::kProcessor;
    out->index = static_cast<uint32_t>(index);
    return true;
  }
  return false;
}

/// Parses and bounds-checks one node reference against the cluster shape.
void ReadNodeRef(ObjectReader* reader, const std::string& key,
                 const ScenarioCluster& cluster, Errors* errors, NodeRef* out,
                 bool required = true) {
  const JsonValue* v = reader->Claim(key);
  if (v == nullptr) {
    if (required) {
      errors->Add(reader->MemberPath(key), "missing required field");
    }
    return;
  }
  if (!v->is_string()) {
    errors->Add(reader->MemberPath(key),
                "expected node reference string "
                "(\"processor:N\", \"master\" or \"ingester\")");
    return;
  }
  NodeRef ref;
  if (!ParseNodeRefString(v->string_value, &ref)) {
    errors->Add(reader->MemberPath(key),
                "invalid node reference \"" + v->string_value +
                    "\" (want \"processor:N\", \"master\" or \"ingester\")");
    return;
  }
  if (ref.kind == NodeRef::Kind::kProcessor &&
      ref.index >= cluster.processors) {
    errors->Add(reader->MemberPath(key),
                "processor index " + std::to_string(ref.index) +
                    " out of range (cluster has " +
                    std::to_string(cluster.processors) + " processors)");
    return;
  }
  *out = ref;
}

void ParseClusterSection(const JsonValue& value, const std::string& path,
                         Errors* errors, ScenarioCluster* out) {
  ObjectReader reader(value, path, errors);
  if (!reader.valid()) return;
  uint64_t processors = out->processors, hosts = out->hosts;
  if (reader.ReadUint("processors", &processors)) {
    if (processors < 1 || processors > 256) {
      errors->Add(reader.MemberPath("processors"), "must be in [1, 256]");
    } else {
      out->processors = static_cast<uint32_t>(processors);
    }
  }
  if (reader.ReadUint("hosts", &hosts)) {
    if (hosts < 1 || hosts > 256) {
      errors->Add(reader.MemberPath("hosts"), "must be in [1, 256]");
    } else {
      out->hosts = static_cast<uint32_t>(hosts);
    }
  }
  if (const JsonValue* speeds = reader.Claim("processor_speeds")) {
    if (!speeds->is_array()) {
      errors->Add(reader.MemberPath("processor_speeds"), "expected array");
    } else if (speeds->array.size() > out->processors) {
      errors->Add(reader.MemberPath("processor_speeds"),
                  "more entries than processors");
    } else {
      for (size_t i = 0; i < speeds->array.size(); ++i) {
        const JsonValue& s = speeds->array[i];
        const std::string item =
            reader.MemberPath("processor_speeds") + "[" + std::to_string(i) +
            "]";
        if (!s.is_number()) {
          errors->Add(item, "expected number");
        } else if (s.number <= 0.0) {
          errors->Add(item, "must be > 0");
        } else {
          out->processor_speeds.push_back(s.number);
        }
      }
    }
  }
  reader.RejectUnknown();
}

void ParseCostSection(const JsonValue& value, const std::string& path,
                      Errors* errors, std::map<std::string, double>* out) {
  ObjectReader reader(value, path, errors);
  if (!reader.valid()) return;
  for (const CostField& field : kCostFields) {
    double v = 0.0;
    if (reader.ReadDouble(field.name, &v)) {
      if (v <= 0.0 && std::string(field.name) != "net_jitter") {
        errors->Add(reader.MemberPath(field.name), "must be > 0");
      } else if (std::string(field.name) == "net_jitter" &&
                 (v < 0.0 || v >= 1.0)) {
        errors->Add(reader.MemberPath(field.name), "must be in [0, 1)");
      } else {
        (*out)[field.name] = v;
      }
    }
  }
  reader.RejectUnknown();
}

void ParseWorkloadSection(const JsonValue& value, const std::string& path,
                          Errors* errors, ScenarioWorkload* out) {
  ObjectReader reader(value, path, errors);
  if (!reader.valid()) return;
  std::string kind;
  reader.ReadString("kind", &kind, /*required=*/true);
  if (kind == "sssp") {
    out->kind = ScenarioWorkload::Kind::kSssp;
  } else if (kind == "pagerank") {
    out->kind = ScenarioWorkload::Kind::kPageRank;
  } else if (kind == "kmeans") {
    out->kind = ScenarioWorkload::Kind::kKMeans;
  } else if (kind == "sgd_svm") {
    out->kind = ScenarioWorkload::Kind::kSgdSvm;
  } else if (kind == "sgd_lr") {
    out->kind = ScenarioWorkload::Kind::kSgdLr;
  } else if (!kind.empty()) {
    errors->Add(reader.MemberPath("kind"),
                "unknown workload \"" + kind +
                    "\" (want sssp, pagerank, kmeans, sgd_svm or sgd_lr)");
  }
  uint64_t tuples = out->tuples;
  if (reader.ReadUint("tuples", &tuples)) {
    if (tuples < 100 || tuples > 10000000) {
      errors->Add(reader.MemberPath("tuples"),
                  "must be in [100, 10000000]");
    } else {
      out->tuples = tuples;
    }
  }
  double rate = out->rate;
  if (reader.ReadDouble("rate", &rate)) {
    if (rate <= 0.0) {
      errors->Add(reader.MemberPath("rate"), "must be > 0");
    } else {
      out->rate = rate;
    }
  }
  uint64_t batch = out->batch;
  if (reader.ReadUint("batch", &batch)) {
    if (batch < 1 || batch > 100000) {
      errors->Add(reader.MemberPath("batch"), "must be in [1, 100000]");
    } else {
      out->batch = static_cast<uint32_t>(batch);
    }
  }
  reader.ReadBool("batch_mode", &out->batch_mode);
  reader.ReadUint("stream_seed", &out->stream_seed);
  reader.RejectUnknown();
}

void ParseConsistencySection(const JsonValue& value, const std::string& path,
                             Errors* errors, ScenarioConsistency* out) {
  ObjectReader reader(value, path, errors);
  if (!reader.valid()) return;
  uint64_t bound = out->delay_bound;
  if (reader.ReadUint("delay_bound", &bound)) {
    if (bound < 1 || bound > 1000000) {
      errors->Add(reader.MemberPath("delay_bound"),
                  "must be in [1, 1000000]");
    } else {
      out->delay_bound = bound;
    }
  }
  reader.RejectUnknown();
}

void ParseDriveSection(const JsonValue& value, const std::string& path,
                       Errors* errors, ScenarioDrive* out) {
  ObjectReader reader(value, path, errors);
  if (!reader.valid()) return;
  reader.ReadUint("warmup_tuples", &out->warmup_tuples);
  double d = 0.0;
  if (reader.ReadDouble("warmup_timeout", &d)) {
    if (d <= 0.0) {
      errors->Add(reader.MemberPath("warmup_timeout"), "must be > 0");
    } else {
      out->warmup_timeout = d;
    }
  }
  reader.ReadBool("pause_ingest", &out->pause_ingest);
  if (reader.ReadDouble("settle_seconds", &d)) {
    if (d < 0.0) {
      errors->Add(reader.MemberPath("settle_seconds"), "must be >= 0");
    } else {
      out->settle_seconds = d;
    }
  }
  reader.ReadBool("query_at_start", &out->query_at_start);
  if (reader.ReadDouble("sample_start_seconds", &d)) {
    if (d < 0.0) {
      errors->Add(reader.MemberPath("sample_start_seconds"), "must be >= 0");
    } else {
      out->sample_start_seconds = d;
    }
  }
  if (reader.ReadDouble("bucket_seconds", &d)) {
    if (d <= 0.0) {
      errors->Add(reader.MemberPath("bucket_seconds"), "must be > 0");
    } else {
      out->bucket_seconds = d;
    }
  }
  uint64_t count = out->sample_count;
  if (reader.ReadUint("sample_count", &count)) {
    if (count > 100000) {
      errors->Add(reader.MemberPath("sample_count"),
                  "must be <= 100000");
    } else {
      out->sample_count = static_cast<uint32_t>(count);
    }
  }
  reader.ReadBool("wait_for_query", &out->wait_for_query);
  if (reader.ReadDouble("query_timeout", &d)) {
    if (d <= 0.0) {
      errors->Add(reader.MemberPath("query_timeout"), "must be > 0");
    } else {
      out->query_timeout = d;
    }
  }
  reader.RejectUnknown();
}

void ParseTimelineAction(const JsonValue& value, const std::string& path,
                         const ScenarioCluster& cluster, Errors* errors,
                         TimelineAction* out) {
  ObjectReader reader(value, path, errors);
  if (!reader.valid()) return;
  std::string action;
  reader.ReadString("action", &action, /*required=*/true);
  double at = 0.0;
  if (reader.ReadDouble("at", &at)) {
    if (at < 0.0) {
      errors->Add(reader.MemberPath("at"), "must be >= 0");
    } else {
      out->at = at;
    }
  } else if (value.Find("at") == nullptr) {
    errors->Add(reader.MemberPath("at"), "missing required field");
  }

  using Kind = TimelineAction::Kind;
  if (action == "kill") {
    out->kind = Kind::kKill;
  } else if (action == "recover") {
    out->kind = Kind::kRecover;
  } else if (action == "crash_restart") {
    out->kind = Kind::kCrashRestart;
  } else if (action == "drop_link") {
    out->kind = Kind::kDropLink;
  } else if (action == "restore_link") {
    out->kind = Kind::kRestoreLink;
  } else if (action == "partition") {
    out->kind = Kind::kPartition;
  } else if (action == "heal_partition") {
    out->kind = Kind::kHealPartition;
  } else if (action == "slow_node") {
    out->kind = Kind::kSlowNode;
  } else if (action == "restore_speed") {
    out->kind = Kind::kRestoreSpeed;
  } else if (action == "set_rate") {
    out->kind = Kind::kSetRate;
  } else if (action == "restore_rate") {
    out->kind = Kind::kRestoreRate;
  } else {
    if (!action.empty()) {
      errors->Add(reader.MemberPath("action"),
                  "unknown action \"" + action + "\"");
    }
    reader.RejectUnknown();
    return;
  }

  switch (out->kind) {
    case Kind::kKill:
    case Kind::kRecover:
    case Kind::kRestoreSpeed:
      ReadNodeRef(&reader, "node", cluster, errors, &out->node);
      break;
    case Kind::kCrashRestart: {
      ReadNodeRef(&reader, "node", cluster, errors, &out->node);
      double downtime = 0.0;
      if (reader.ReadDouble("downtime", &downtime)) {
        if (downtime <= 0.0) {
          errors->Add(reader.MemberPath("downtime"), "must be > 0");
        } else {
          out->downtime = downtime;
        }
      } else if (value.Find("downtime") == nullptr) {
        errors->Add(reader.MemberPath("downtime"), "missing required field");
      }
      break;
    }
    case Kind::kDropLink:
    case Kind::kRestoreLink:
      ReadNodeRef(&reader, "src", cluster, errors, &out->src);
      ReadNodeRef(&reader, "dst", cluster, errors, &out->dst);
      if (value.Find("src") != nullptr && value.Find("dst") != nullptr &&
          out->src == out->dst) {
        errors->Add(reader.path(), "src and dst must differ");
      }
      break;
    case Kind::kPartition:
    case Kind::kHealPartition: {
      const JsonValue* side = reader.Claim("side");
      if (side == nullptr) {
        errors->Add(reader.MemberPath("side"), "missing required field");
        break;
      }
      if (!side->is_array() || side->array.empty()) {
        errors->Add(reader.MemberPath("side"), "expected non-empty array");
        break;
      }
      for (size_t i = 0; i < side->array.size(); ++i) {
        const std::string item =
            reader.MemberPath("side") + "[" + std::to_string(i) + "]";
        const JsonValue& entry = side->array[i];
        if (!entry.is_string()) {
          errors->Add(item, "expected node reference string");
          continue;
        }
        NodeRef ref;
        if (!ParseNodeRefString(entry.string_value, &ref)) {
          errors->Add(item, "invalid node reference \"" + entry.string_value +
                                "\"");
          continue;
        }
        if (ref.kind == NodeRef::Kind::kProcessor &&
            ref.index >= cluster.processors) {
          errors->Add(item, "processor index " + std::to_string(ref.index) +
                                " out of range (cluster has " +
                                std::to_string(cluster.processors) +
                                " processors)");
          continue;
        }
        out->side.push_back(ref);
      }
      break;
    }
    case Kind::kSlowNode: {
      ReadNodeRef(&reader, "node", cluster, errors, &out->node);
      double factor = 0.0;
      if (reader.ReadDouble("factor", &factor)) {
        if (factor <= 0.0) {
          errors->Add(reader.MemberPath("factor"), "must be > 0");
        } else {
          out->factor = factor;
        }
      } else if (value.Find("factor") == nullptr) {
        errors->Add(reader.MemberPath("factor"), "missing required field");
      }
      break;
    }
    case Kind::kSetRate: {
      double rate = 0.0;
      if (reader.ReadDouble("rate", &rate)) {
        if (rate <= 0.0) {
          errors->Add(reader.MemberPath("rate"), "must be > 0");
        } else {
          out->rate = rate;
        }
      } else if (value.Find("rate") == nullptr) {
        errors->Add(reader.MemberPath("rate"), "missing required field");
      }
      break;
    }
    case Kind::kRestoreRate:
      break;
  }
  reader.RejectUnknown();
}

void ParseChaosSection(const JsonValue& value, const std::string& path,
                       Errors* errors, ScenarioChaos* out) {
  ObjectReader reader(value, path, errors);
  if (!reader.valid()) return;
  double after = 0.0;
  if (reader.ReadDouble("commit_regression_after", &after)) {
    if (after < 0.0) {
      errors->Add(reader.MemberPath("commit_regression_after"),
                  "must be >= 0");
    } else {
      out->commit_regression_after = after;
    }
  }
  reader.RejectUnknown();
}

void ParseProvenanceSection(const JsonValue& value, const std::string& path,
                            Errors* errors,
                            std::map<std::string, std::string>* out) {
  // Free-form string map: any keys, string values only.
  if (!value.is_object()) {
    errors->Add(path, "expected object");
    return;
  }
  for (const auto& [key, v] : value.object) {
    if (!v.is_string()) {
      errors->Add(path + "." + key, "expected string");
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
  switch (kind) {
    case ScenarioWorkload::Kind::kSssp:
      return "sssp";
    case ScenarioWorkload::Kind::kPageRank:
      return "pagerank";
    case ScenarioWorkload::Kind::kKMeans:
      return "kmeans";
    case ScenarioWorkload::Kind::kSgdSvm:
      return "sgd_svm";
    case ScenarioWorkload::Kind::kSgdLr:
      return "sgd_lr";
  }
  return "?";
}

const char* ActionKindName(TimelineAction::Kind kind) {
  switch (kind) {
    case TimelineAction::Kind::kKill:
      return "kill";
    case TimelineAction::Kind::kRecover:
      return "recover";
    case TimelineAction::Kind::kCrashRestart:
      return "crash_restart";
    case TimelineAction::Kind::kDropLink:
      return "drop_link";
    case TimelineAction::Kind::kRestoreLink:
      return "restore_link";
    case TimelineAction::Kind::kPartition:
      return "partition";
    case TimelineAction::Kind::kHealPartition:
      return "heal_partition";
    case TimelineAction::Kind::kSlowNode:
      return "slow_node";
    case TimelineAction::Kind::kRestoreSpeed:
      return "restore_speed";
    case TimelineAction::Kind::kSetRate:
      return "set_rate";
    case TimelineAction::Kind::kRestoreRate:
      return "restore_rate";
  }
  return "?";
}

bool ParseScenario(const JsonValue& root, Scenario* out,
                   std::vector<std::string>* errors) {
  errors->clear();
  *out = Scenario();
  Errors errs(errors);
  ObjectReader reader(root, "scenario", &errs);
  if (!reader.valid()) return false;

  reader.ReadString("name", &out->name, /*required=*/true);
  if (!out->name.empty()) {
    for (char c : out->name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != '-') {
        errs.Add("scenario.name",
                 "must contain only [A-Za-z0-9_-] (used as a test name)");
        break;
      }
    }
  }
  reader.ReadString("description", &out->description);
  reader.ReadUint("seed", &out->seed);

  // Cluster first: node references downstream validate against its shape.
  if (const JsonValue* v = reader.Claim("cluster")) {
    ParseClusterSection(*v, "scenario.cluster", &errs, &out->cluster);
  }
  if (const JsonValue* v = reader.Claim("cost")) {
    ParseCostSection(*v, "scenario.cost", &errs, &out->cost);
  }
  if (const JsonValue* v = reader.Claim("workload")) {
    ParseWorkloadSection(*v, "scenario.workload", &errs, &out->workload);
  } else {
    errs.Add("scenario.workload", "missing required field");
  }
  if (const JsonValue* v = reader.Claim("consistency")) {
    ParseConsistencySection(*v, "scenario.consistency", &errs,
                            &out->consistency);
  }
  if (const JsonValue* v = reader.Claim("drive")) {
    ParseDriveSection(*v, "scenario.drive", &errs, &out->drive);
  }
  if (const JsonValue* v = reader.Claim("timeline")) {
    if (!v->is_array()) {
      errs.Add("scenario.timeline", "expected array");
    } else {
      for (size_t i = 0; i < v->array.size(); ++i) {
        TimelineAction action;
        ParseTimelineAction(v->array[i],
                            "scenario.timeline[" + std::to_string(i) + "]",
                            out->cluster, &errs, &action);
        out->timeline.push_back(std::move(action));
      }
    }
  }
  if (const JsonValue* v = reader.Claim("chaos")) {
    ParseChaosSection(*v, "scenario.chaos", &errs, &out->chaos);
  }
  if (const JsonValue* v = reader.Claim("provenance")) {
    ParseProvenanceSection(*v, "scenario.provenance", &errs,
                           &out->provenance);
  }

  // Cross-section checks.
  if (out->drive.warmup_tuples > out->workload.tuples) {
    errs.Add("scenario.drive.warmup_tuples",
             "exceeds scenario.workload.tuples (" +
                 std::to_string(out->workload.tuples) + ")");
  }
  if (out->cluster.hosts > out->cluster.processors) {
    errs.Add("scenario.cluster.hosts", "must be <= processors");
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
  root.Add("seed", JsonValue::Of(static_cast<double>(s.seed)));

  JsonValue cluster = JsonValue::MakeObject();
  cluster.Add("processors",
              JsonValue::Of(static_cast<double>(s.cluster.processors)));
  cluster.Add("hosts", JsonValue::Of(static_cast<double>(s.cluster.hosts)));
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
  workload.Add("kind", JsonValue::Of(std::string(
                           WorkloadKindName(s.workload.kind))));
  workload.Add("tuples",
               JsonValue::Of(static_cast<double>(s.workload.tuples)));
  workload.Add("rate", JsonValue::Of(s.workload.rate));
  workload.Add("batch", JsonValue::Of(static_cast<double>(s.workload.batch)));
  workload.Add("batch_mode", JsonValue::Of(s.workload.batch_mode));
  workload.Add("stream_seed",
               JsonValue::Of(static_cast<double>(s.workload.stream_seed)));
  root.Add("workload", std::move(workload));

  JsonValue consistency = JsonValue::MakeObject();
  consistency.Add("delay_bound", JsonValue::Of(static_cast<double>(
                                     s.consistency.delay_bound)));
  root.Add("consistency", std::move(consistency));

  JsonValue drive = JsonValue::MakeObject();
  drive.Add("warmup_tuples",
            JsonValue::Of(static_cast<double>(s.drive.warmup_tuples)));
  drive.Add("warmup_timeout", JsonValue::Of(s.drive.warmup_timeout));
  drive.Add("pause_ingest", JsonValue::Of(s.drive.pause_ingest));
  drive.Add("settle_seconds", JsonValue::Of(s.drive.settle_seconds));
  drive.Add("query_at_start", JsonValue::Of(s.drive.query_at_start));
  drive.Add("sample_start_seconds",
            JsonValue::Of(s.drive.sample_start_seconds));
  drive.Add("bucket_seconds", JsonValue::Of(s.drive.bucket_seconds));
  drive.Add("sample_count",
            JsonValue::Of(static_cast<double>(s.drive.sample_count)));
  drive.Add("wait_for_query", JsonValue::Of(s.drive.wait_for_query));
  drive.Add("query_timeout", JsonValue::Of(s.drive.query_timeout));
  root.Add("drive", std::move(drive));

  if (!s.timeline.empty()) {
    JsonValue timeline = JsonValue::MakeArray();
    for (const TimelineAction& a : s.timeline) {
      JsonValue action = JsonValue::MakeObject();
      action.Add("action", JsonValue::Of(std::string(ActionKindName(a.kind))));
      action.Add("at", JsonValue::Of(a.at));
      using Kind = TimelineAction::Kind;
      switch (a.kind) {
        case Kind::kKill:
        case Kind::kRecover:
        case Kind::kRestoreSpeed:
          action.Add("node", JsonValue::Of(a.node.ToString()));
          break;
        case Kind::kCrashRestart:
          action.Add("node", JsonValue::Of(a.node.ToString()));
          action.Add("downtime", JsonValue::Of(a.downtime));
          break;
        case Kind::kDropLink:
        case Kind::kRestoreLink:
          action.Add("src", JsonValue::Of(a.src.ToString()));
          action.Add("dst", JsonValue::Of(a.dst.ToString()));
          break;
        case Kind::kPartition:
        case Kind::kHealPartition: {
          JsonValue side = JsonValue::MakeArray();
          for (const NodeRef& ref : a.side) {
            side.array.push_back(JsonValue::Of(ref.ToString()));
          }
          action.Add("side", std::move(side));
          break;
        }
        case Kind::kSlowNode:
          action.Add("node", JsonValue::Of(a.node.ToString()));
          action.Add("factor", JsonValue::Of(a.factor));
          break;
        case Kind::kSetRate:
          action.Add("rate", JsonValue::Of(a.rate));
          break;
        case Kind::kRestoreRate:
          break;
      }
      timeline.array.push_back(std::move(action));
    }
    root.Add("timeline", std::move(timeline));
  }

  if (s.chaos.commit_regression_after >= 0.0) {
    JsonValue chaos = JsonValue::MakeObject();
    chaos.Add("commit_regression_after",
              JsonValue::Of(s.chaos.commit_regression_after));
    root.Add("chaos", std::move(chaos));
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
