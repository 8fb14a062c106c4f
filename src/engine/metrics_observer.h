#ifndef TORNADO_ENGINE_METRICS_OBSERVER_H_
#define TORNADO_ENGINE_METRICS_OBSERVER_H_

#include <cstdint>

#include "common/metrics.h"
#include "engine/observer.h"

namespace tornado {

/// Bridges engine events into the MetricRegistry. Counter names are
/// interned once at construction; every event is a direct int64 bump with
/// no string hashing or map lookup on the hot path. The registry must
/// outlive this observer.
class MetricsEngineObserver final : public EngineObserver {
 public:
  explicit MetricsEngineObserver(MetricRegistry* metrics)
      : inputs_gathered_(metrics->CounterHandle(metric::kInputsGathered)),
        prepares_sent_(metrics->CounterHandle(metric::kPreparesSent)),
        acks_sent_(metrics->CounterHandle(metric::kAcksSent)),
        updates_committed_(metrics->CounterHandle(metric::kUpdatesCommitted)),
        updates_blocked_(metrics->CounterHandle(metric::kUpdatesBlocked)),
        versions_flushed_(metrics->CounterHandle(metric::kVersionsFlushed)),
        report_sessions_visited_(
            metrics->CounterHandle(metric::kReportSessionsVisited)) {}

  void OnInputGathered(LoopId, VertexId) override { ++inputs_gathered_; }
  void OnPrepare(LoopId, LoopEpoch, VertexId, uint64_t fanout) override {
    prepares_sent_ += static_cast<int64_t>(fanout);
  }
  void OnAck(LoopId, LoopEpoch, VertexId, VertexId, Iteration) override {
    ++acks_sent_;
  }
  void OnCommit(LoopId, LoopEpoch, VertexId, Iteration, Iteration,
                Iteration) override {
    ++updates_committed_;
  }
  void OnBlock(LoopId, LoopEpoch, VertexId, Iteration) override {
    ++updates_blocked_;
  }
  void OnFlush(LoopId, uint64_t versions) override {
    versions_flushed_ += static_cast<int64_t>(versions);
  }
  void OnReport(LoopId, uint32_t, uint64_t sessions_visited) override {
    report_sessions_visited_ += static_cast<int64_t>(sessions_visited);
  }

 private:
  metric::Counter& inputs_gathered_;
  metric::Counter& prepares_sent_;
  metric::Counter& acks_sent_;
  metric::Counter& updates_committed_;
  metric::Counter& updates_blocked_;
  metric::Counter& versions_flushed_;
  metric::Counter& report_sessions_visited_;
};

}  // namespace tornado

#endif  // TORNADO_ENGINE_METRICS_OBSERVER_H_
