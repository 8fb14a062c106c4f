#ifndef TORNADO_COMMON_METRICS_H_
#define TORNADO_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/histogram.h"
#include "common/mutex.h"

namespace tornado {

namespace metric {
/// A pre-resolved counter slot. Handles returned by
/// MetricRegistry::CounterHandle are plain atomics: bumping one is safe
/// from any thread with no registry lock involved. Code outside
/// src/common/ and src/runtime/ should hold `metric::Counter&` rather
/// than naming std::atomic directly (tornado_lint CON-001).
using Counter = std::atomic<int64_t>;
}  // namespace metric

/// A flat bag of named counters plus named sample distributions. The
/// engine components (transport, session layer, master) account their work
/// here; benchmarks read the counters to report the paper's "#Updates",
/// "#Prepares" and "#Messages Per Second" columns, and the trace layer /
/// benches feed distributions (query latency, commit staleness) whose
/// p50/p95/max land in the machine-readable bench output.
///
/// Locking contract (docs/RUNTIME.md): the map STRUCTURE (interning a
/// new name) is guarded by mu_, so a first-use Inc from a node thread can
/// no longer race another lookup; counter VALUES are atomics, so handle
/// bumps are lock-free. Hot paths pre-resolve handles (CounterHandle /
/// HistogramHandle) so the per-event cost is one atomic add. Histogram
/// samples recorded through a handle, and the references returned by
/// counters()/histograms(), are not serialized by the registry — they are
/// for the driver after the run quiesces (benches, trace report).
class MetricRegistry {
 public:
  void Inc(const std::string& name, int64_t delta = 1) {
    const MutexLock lock(&mu_);
    counters_[name] += delta;
  }

  int64_t Get(const std::string& name) const {
    const MutexLock lock(&mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.load();
  }

  /// Pre-resolved counter handle: interns `name` once and returns a stable
  /// reference the caller bumps directly, keeping hot paths free of string
  /// hashing, map lookups, and the registry lock. Handles stay valid for
  /// the registry's lifetime (std::map nodes are stable, and Reset zeroes
  /// values in place instead of erasing them).
  metric::Counter& CounterHandle(const std::string& name) {
    const MutexLock lock(&mu_);
    return counters_[name];
  }

  /// Records one sample into the named distribution.
  void Observe(const std::string& name, double value) {
    const MutexLock lock(&mu_);
    histograms_[name].Add(value);
  }

  /// Pre-resolved distribution handle; same lifetime contract as
  /// CounterHandle (Reset clears samples in place, nodes are stable).
  /// Samples added through the handle bypass the registry lock: driver /
  /// sim-thread use only.
  Histogram& HistogramHandle(const std::string& name) {
    const MutexLock lock(&mu_);
    return histograms_[name];
  }

  /// The named distribution, or nullptr when nothing was observed.
  const Histogram* GetHistogram(const std::string& name) const {
    const MutexLock lock(&mu_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  void Reset() {
    const MutexLock lock(&mu_);
    for (auto& [name, value] : counters_) value = 0;
    for (auto& [name, hist] : histograms_) hist.Clear();
  }

  /// Whole-map views for post-run reporting. The returned references
  /// escape the lock: read them only after the run quiesces (benches and
  /// the trace report do), never while node threads are bumping handles
  /// into new names.
  const std::map<std::string, metric::Counter>& counters() const {
    const MutexLock lock(&mu_);
    return counters_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    const MutexLock lock(&mu_);
    return histograms_;
  }

  std::string ToString() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, metric::Counter> counters_ GUARDED_BY(mu_);
  std::map<std::string, Histogram> histograms_ GUARDED_BY(mu_);
};

/// Well-known metric names shared between the engine and the benches.
namespace metric {
inline constexpr const char kUpdatesCommitted[] = "updates_committed";
inline constexpr const char kPreparesSent[] = "prepares_sent";
inline constexpr const char kAcksSent[] = "acks_sent";
inline constexpr const char kMessagesSent[] = "messages_sent";
inline constexpr const char kMessagesDelivered[] = "messages_delivered";
inline constexpr const char kMessagesRetransmitted[] = "messages_retransmitted";
inline constexpr const char kMessagesDeduped[] = "messages_deduped";
inline constexpr const char kTransportAcks[] = "transport_acks";
inline constexpr const char kMessagesDroppedLink[] = "messages_dropped_link";
inline constexpr const char kAcksDroppedLink[] = "acks_dropped_link";
inline constexpr const char kVersionsFlushed[] = "versions_flushed";
inline constexpr const char kInputsGathered[] = "inputs_gathered";
inline constexpr const char kUpdatesBlocked[] = "updates_blocked_at_bound";
inline constexpr const char kIterationsTerminated[] = "iterations_terminated";
// Per-period work: sessions a progress report examines, per-iteration
// entries a store flush sums, and chains a store prune examines. (Short
// names stay in the string's inline buffer: cluster setup interns them.)
inline constexpr const char kReportSessionsVisited[] = "report_visits";
inline constexpr const char kFlushEntriesVisited[] = "flush_visits";
inline constexpr const char kPruneChainsVisited[] = "prune_visits";

// Distribution names (MetricRegistry::Observe).
inline constexpr const char kQueryLatency[] = "query_latency_seconds";
inline constexpr const char kCommitStaleness[] = "commit_staleness_iters";
}  // namespace metric

}  // namespace tornado

#endif  // TORNADO_COMMON_METRICS_H_
