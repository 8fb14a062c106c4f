#ifndef TORNADO_TRACE_TRACE_RECORDER_H_
#define TORNADO_TRACE_TRACE_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "runtime/substrate.h"
#include "trace/trace_event.h"

namespace tornado {

/// Collects structured trace events stamped with the virtual clock and
/// exports them as Chrome trace-event JSON (loadable in Perfetto /
/// chrome://tracing).
///
/// Determinism contract: every recorded field derives from virtual time
/// and protocol state, and the JSON writer uses fixed-precision printf
/// formatting, so the same seed yields byte-identical output
/// (tests/trace_determinism_test.cc holds this).
///
/// The recorder can be paused; while paused, record calls are dropped at
/// the call site cost of one branch. The TORNADO_TRACE auto-attach keeps
/// the recorder paused so a traced build's full test suite does not
/// accumulate events — TornadoCluster::EnableTracing() resumes it.
/// A hard cap bounds memory on long runs; overflow events are counted,
/// not silently lost.
///
/// Threading: single-threaded. Only the sim backend traces; the thread
/// backend has no deterministic clock and gets no recorder at all
/// (TornadoCluster::EnableTracing() warns and returns nullptr there).
///
/// Export sorts events by (record time, track, record order), where
/// record time is the virtual clock at the record call (a span's *close*
/// time). That order defines the trace bytes the same-seed goldens pin
/// (tests/trace_determinism_test.cc): when two events carry the exact
/// same double timestamp (t = 0 setup, periodic timers) the track breaks
/// the tie, and record order keeps a track's events in execution order.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultMaxEvents = 500000;

  explicit TraceRecorder(const Clock* clock,
                         size_t max_events = kDefaultMaxEvents);

  void Pause() { enabled_ = false; }
  void Resume() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Current substrate time (for subscribers synthesizing spans).
  double now() const { return clock_->now(); }

  /// Names a track ("processor 0", "master", ...) in the exported view.
  void SetTrackName(uint32_t track, const std::string& name);

  /// Records a complete span [begin_ts, end_ts] on `track`.
  void Span(const char* cat, const char* name, uint32_t track,
            double begin_ts, double end_ts, TraceArgs args = {});

  /// Records a point event at the current virtual time.
  void Instant(const char* cat, const char* name, uint32_t track,
               TraceArgs args = {});

  /// Records a counter sample (rendered as a graph by Perfetto).
  void Counter(const char* cat, const std::string& name, uint32_t track,
               double value);

  /// Records a flow endpoint: phase 's' opens an arrow with id `flow_id`,
  /// phase 'f' terminates it. A flow binds to the span recorded on the
  /// same track at the same timestamp.
  void Flow(char phase, const char* cat, const char* name, uint32_t track,
            uint64_t flow_id);

  /// Recorded events in recording order.
  const std::vector<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  size_t dropped() const { return dropped_; }
  void Clear();

  /// Writes the Chrome trace-event JSON ({"traceEvents": [...]}), one
  /// event per line, sorted by (record time, track, record order).
  void WriteChromeTrace(std::ostream& os) const;

  /// Same, to a file. Returns false on I/O failure.
  bool WriteChromeTraceFile(const std::string& path) const;

 private:
  void Push(TraceEvent ev);

  const Clock* clock_;
  bool enabled_ = true;
  size_t max_events_;
  std::vector<TraceEvent> events_;
  // Virtual time of each record call, index-aligned with `events_`; the
  // primary key of the export sort.
  std::vector<double> record_ts_;
  size_t dropped_ = 0;
  std::map<uint32_t, std::string> track_names_;
};

}  // namespace tornado

#endif  // TORNADO_TRACE_TRACE_RECORDER_H_
