#include "trace/trace_recorder.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <utility>

#include "common/json.h"

namespace tornado {

namespace {

/// Microsecond timestamp with fixed precision: deterministic printf
/// formatting is what makes same-seed traces byte-identical.
std::string Micros(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

void WriteArgs(std::ostream& os, const TraceArgs& args) {
  os << "\"args\":{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) os << ",";
    os << "\"" << key << "\":" << value;
    first = false;
  }
  os << "}";
}

}  // namespace

TraceRecorder::TraceRecorder(const Clock* clock, size_t max_events)
    : clock_(clock), max_events_(max_events) {}

void TraceRecorder::SetTrackName(uint32_t track, const std::string& name) {
  track_names_[track] = name;
}

void TraceRecorder::Push(TraceEvent ev) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  record_ts_.push_back(clock_->now());
  events_.push_back(std::move(ev));
}

void TraceRecorder::Span(const char* cat, const char* name, uint32_t track,
                         double begin_ts, double end_ts, TraceArgs args) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.ts = begin_ts;
  ev.dur = end_ts > begin_ts ? end_ts - begin_ts : 0.0;
  ev.ph = 'X';
  ev.track = track;
  ev.cat = cat;
  ev.name = name;
  ev.args = std::move(args);
  Push(std::move(ev));
}

void TraceRecorder::Instant(const char* cat, const char* name, uint32_t track,
                            TraceArgs args) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.ts = clock_->now();
  ev.ph = 'i';
  ev.track = track;
  ev.cat = cat;
  ev.name = name;
  ev.args = std::move(args);
  Push(std::move(ev));
}

void TraceRecorder::Counter(const char* cat, const std::string& name,
                            uint32_t track, double value) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.ts = clock_->now();
  ev.ph = 'C';
  ev.track = track;
  ev.cat = cat;
  ev.name = name;
  ev.value = value;
  Push(std::move(ev));
}

void TraceRecorder::Flow(char phase, const char* cat, const char* name,
                         uint32_t track, uint64_t flow_id) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.ts = clock_->now();
  ev.ph = phase;
  ev.track = track;
  ev.cat = cat;
  ev.name = name;
  ev.flow = flow_id;
  Push(std::move(ev));
}

void TraceRecorder::Clear() {
  events_.clear();
  record_ts_.clear();
  dropped_ = 0;
}

void TraceRecorder::WriteChromeTrace(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Track-name metadata first so viewers label every row.
  for (const auto& [track, name] : track_names_) {
    if (!first) os << ",\n";
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << track
       << ",\"args\":{\"name\":" << JsonQuote(name) << "}}";
    first = false;
  }
  // Export order: (record time, track, record order). The track breaks
  // exact-double time ties (deterministic setup times, periodic timers);
  // record order keeps same-track events in execution order.
  std::vector<uint32_t> order(events_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    if (record_ts_[a] != record_ts_[b]) return record_ts_[a] < record_ts_[b];
    if (events_[a].track != events_[b].track) {
      return events_[a].track < events_[b].track;
    }
    return a < b;
  });
  for (const uint32_t index : order) {
    const TraceEvent& ev = events_[index];
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":" << JsonQuote(ev.name) << ",\"cat\":\"" << ev.cat
       << "\",\"ph\":\"" << ev.ph << "\",\"ts\":" << Micros(ev.ts);
    switch (ev.ph) {
      case 'X':
        os << ",\"dur\":" << Micros(ev.dur);
        break;
      case 'i':
        os << ",\"s\":\"t\"";  // thread-scoped instant
        break;
      case 'C':
        break;
      case 's':
      case 'f':
        os << ",\"id\":" << ev.flow;
        if (ev.ph == 'f') os << ",\"bp\":\"e\"";  // bind to enclosing slice
        break;
      default:
        break;
    }
    os << ",\"pid\":0,\"tid\":" << ev.track << ",";
    if (ev.ph == 'C') {
      os << "\"args\":{\"value\":" << Number(ev.value) << "}";
    } else {
      WriteArgs(os, ev.args);
    }
    os << "}";
  }
  os << "\n]}\n";
}

bool TraceRecorder::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteChromeTrace(out);
  return out.good();
}

}  // namespace tornado
