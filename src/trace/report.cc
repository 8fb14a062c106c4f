#include "trace/report.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>

#include "common/json.h"

namespace tornado {

namespace {

// WriteChromeTrace puts one event object on each line, so a line less its
// trailing comma is one JSON document. The array brackets and anything
// hand-edited into something else fail to parse and are skipped.
bool ParseEventLine(const std::string& line, JsonValue* event) {
  size_t end = line.size();
  while (end > 0 && (line[end - 1] == ',' ||
                     std::isspace(static_cast<unsigned char>(line[end - 1])))) {
    --end;
  }
  return JsonParse(line.substr(0, end), event, nullptr) && event->is_object();
}

std::string StringField(const JsonValue& object, const char* key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->is_string() ? v->string_value : std::string();
}

double NumberField(const JsonValue& object, const char* key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

uint64_t U64Field(const JsonValue& object, const char* key) {
  return static_cast<uint64_t>(NumberField(object, key));
}

std::string Seconds(double s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", s);
  return buf;
}

struct CommitPoint {
  double ts = 0.0;
  uint64_t track = 0;
};

}  // namespace

TraceSummary SummarizeChromeTrace(std::istream& in) {
  TraceSummary summary;
  std::map<std::pair<uint64_t, uint64_t>, TraceSummary::StallEntry> stalls;
  std::vector<CommitPoint> commits;
  bool first_event = true;

  std::string line;
  JsonValue event;
  const JsonValue no_args;
  while (std::getline(in, line)) {
    if (!ParseEventLine(line, &event)) continue;
    const std::string ph = StringField(event, "ph");
    const std::string name = StringField(event, "name");
    const JsonValue* ts_us = event.Find("ts");
    if (ph.empty() || ph == "M" || name.empty() || ts_us == nullptr ||
        !ts_us->is_number()) {
      continue;
    }
    const double ts = ts_us->number / 1e6;
    const JsonValue* args = event.Find("args");
    if (args == nullptr) args = &no_args;

    ++summary.total_events;
    if (first_event || ts < summary.first_ts) summary.first_ts = ts;
    if (first_event || ts > summary.last_ts) summary.last_ts = ts;
    first_event = false;

    const std::string cat = StringField(event, "cat");

    if (ph == "X") {
      const double dur_us = NumberField(event, "dur");
      if (cat == "net") {
        ++summary.messages[name];
      } else {
        TraceSummary::PhaseStat& stat = summary.phases[name];
        ++stat.count;
        stat.total_seconds += dur_us / 1e6;
      }
      if (name == "blocked_at_bound") {
        const uint64_t loop = U64Field(*args, "loop");
        const uint64_t vertex = U64Field(*args, "vertex");
        TraceSummary::StallEntry& entry = stalls[{loop, vertex}];
        entry.loop = loop;
        entry.vertex = vertex;
        ++entry.intervals;
        entry.updates += U64Field(*args, "updates");
        entry.total_seconds += dur_us / 1e6;
      }
    } else if (ph == "i") {
      ++summary.instants[name];
      if (name == "commit") {
        commits.push_back(CommitPoint{ts, U64Field(event, "tid")});
      } else if (name == "node_killed") {
        TraceSummary::RecoveryEvent ev;
        ev.node = U64Field(*args, "node");
        ev.killed_ts = ts;
        summary.recoveries.push_back(ev);
      } else if (name == "node_recovered") {
        const uint64_t node = U64Field(*args, "node");
        // Close the most recent open kill of this node.
        for (auto it = summary.recoveries.rbegin();
             it != summary.recoveries.rend(); ++it) {
          if (it->node == node && it->recovered_ts < 0.0) {
            it->recovered_ts = ts;
            break;
          }
        }
      }
    }
  }

  // Recovery gap: prefer the first commit on the failed node's own track
  // (the recovered processor resuming work); when it never commits again
  // — e.g. a master failure — fall back to the first commit anywhere.
  for (TraceSummary::RecoveryEvent& ev : summary.recoveries) {
    if (ev.recovered_ts < 0.0) continue;
    double any = -1.0;
    for (const CommitPoint& c : commits) {
      if (c.ts < ev.recovered_ts) continue;
      if (any < 0.0) any = c.ts;
      if (c.track == ev.node) {
        ev.first_commit_after = c.ts;
        ev.on_failed_node = true;
        break;
      }
    }
    if (!ev.on_failed_node) ev.first_commit_after = any;
  }

  summary.stalls.reserve(stalls.size());
  for (auto& [key, entry] : stalls) summary.stalls.push_back(entry);
  std::sort(summary.stalls.begin(), summary.stalls.end(),
            [](const TraceSummary::StallEntry& a,
               const TraceSummary::StallEntry& b) {
              if (a.total_seconds != b.total_seconds) {
                return a.total_seconds > b.total_seconds;
              }
              if (a.loop != b.loop) return a.loop < b.loop;
              return a.vertex < b.vertex;
            });
  return summary;
}

bool SummarizeChromeTraceFile(const std::string& path, TraceSummary* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  *out = SummarizeChromeTrace(in);
  return true;
}

std::string FormatSummary(const TraceSummary& summary, size_t top_stalls) {
  std::ostringstream os;
  os << "trace: " << summary.total_events << " events over ["
     << Seconds(summary.first_ts) << ", " << Seconds(summary.last_ts)
     << "] virtual seconds\n";

  os << "\nphase breakdown (spans):\n";
  if (summary.phases.empty()) os << "  (none)\n";
  for (const auto& [name, stat] : summary.phases) {
    os << "  " << name << ": n=" << stat.count
       << " total=" << Seconds(stat.total_seconds) << "s";
    if (stat.count > 0) {
      os << " mean="
         << Seconds(stat.total_seconds / static_cast<double>(stat.count))
         << "s";
    }
    os << "\n";
  }

  os << "\nprotocol instants:\n";
  if (summary.instants.empty()) os << "  (none)\n";
  for (const auto& [name, count] : summary.instants) {
    os << "  " << name << ": " << count << "\n";
  }

  if (!summary.messages.empty()) {
    os << "\nmessages (send+deliver slices):\n";
    for (const auto& [name, count] : summary.messages) {
      os << "  " << name << ": " << count << "\n";
    }
  }

  os << "\ntop stall causes (blocked_at_bound):\n";
  if (summary.stalls.empty()) os << "  (none)\n";
  for (size_t i = 0; i < summary.stalls.size() && i < top_stalls; ++i) {
    const TraceSummary::StallEntry& entry = summary.stalls[i];
    os << "  loop " << entry.loop << " vertex " << entry.vertex << ": "
       << Seconds(entry.total_seconds) << "s over " << entry.intervals
       << " intervals (" << entry.updates << " updates held)\n";
  }

  os << "\nrecovery gaps:\n";
  if (summary.recoveries.empty()) os << "  (no injected failures)\n";
  for (const TraceSummary::RecoveryEvent& ev : summary.recoveries) {
    os << "  node " << ev.node << ": killed at " << Seconds(ev.killed_ts);
    if (ev.recovered_ts < 0.0) {
      os << ", never recovered in-trace\n";
      continue;
    }
    os << ", recovered at " << Seconds(ev.recovered_ts);
    if (ev.first_commit_after < 0.0) {
      os << ", no commit after recovery\n";
      continue;
    }
    os << ", first post-recovery commit at "
       << Seconds(ev.first_commit_after)
       << (ev.on_failed_node ? " (on the failed node)" : " (cluster-wide)")
       << " -> gap " << Seconds(ev.gap_seconds()) << "s\n";
  }
  return os.str();
}

}  // namespace tornado
