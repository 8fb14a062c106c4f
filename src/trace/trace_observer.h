#ifndef TORNADO_TRACE_TRACE_OBSERVER_H_
#define TORNADO_TRACE_TRACE_OBSERVER_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>

#include "common/metrics.h"
#include "engine/observer.h"
#include "graph/dynamic_graph.h"
#include "runtime/substrate.h"
#include "trace/trace_recorder.h"

namespace tornado {

/// Bridges engine and transport events into the TraceRecorder: the
/// protocol's observer stream becomes spans and instants, the network's
/// becomes message slices joined by causal flows.
///
/// Span synthesis (events arrive as points; intervals are reconstructed):
///  - "prepare_round": OnPrepare opens, the matching OnCommit closes; a
///    commit with no open round (prepare-free commit) yields only the
///    "commit" instant.
///  - "blocked_at_bound": the first OnBlock for a (loop, vertex,
///    iteration) opens, further OnBlocks deepen the count, the first
///    OnUnblocked closes. These spans are the input to trace_report's
///    stall attribution.
///
/// Vertex-scoped events land on the owning processor's track (the same
/// HashPartitioner the engine routes by); events without a vertex or
/// processor in their signature land on `fallback_track`.
///
/// Commit staleness (iteration - tau) is additionally observed into the
/// metric registry's kCommitStaleness distribution when a registry is
/// given, so bench JSON reports its p50/p95/max.
class TraceObserver final : public EngineObserver, public TransportObserver {
 public:
  TraceObserver(TraceRecorder* recorder, HashPartitioner partitioner,
                uint32_t fallback_track, MetricRegistry* metrics = nullptr);

  // --- EngineObserver ---
  void OnInputGathered(LoopId loop, VertexId vertex) override;
  void OnPrepare(LoopId loop, LoopEpoch epoch, VertexId producer,
                 uint64_t fanout) override;
  void OnAck(LoopId loop, LoopEpoch epoch, VertexId consumer,
             VertexId producer, Iteration iteration) override;
  void OnCommit(LoopId loop, LoopEpoch epoch, VertexId vertex,
                Iteration iteration, Iteration tau,
                Iteration horizon) override;
  void OnBlock(LoopId loop, LoopEpoch epoch, VertexId vertex,
               Iteration iteration) override;
  void OnUnblocked(LoopId loop, LoopEpoch epoch, VertexId vertex,
                   Iteration iteration) override;
  void OnFlush(LoopId loop, uint64_t versions) override;
  void OnLoopCreated(LoopId loop, LoopEpoch epoch, Iteration tau,
                     uint32_t processor) override;
  void OnLoopDropped(LoopId loop, uint32_t processor) override;
  void OnEngineReset(uint32_t processor) override;
  void OnTerminated(LoopId loop, LoopEpoch epoch, uint32_t processor,
                    Iteration new_tau) override;
  void OnMergeAdopted(LoopId loop, LoopEpoch epoch, VertexId vertex,
                      Iteration merge_iteration) override;

  // --- TransportObserver ---
  void OnSend(NodeId src, NodeId dst, const Payload& payload) override;
  void OnDeliver(NodeId src, NodeId dst, const Payload& payload) override;
  void OnNodeKilled(NodeId node) override;
  void OnNodeRecovered(NodeId node) override;

 private:
  struct OpenInterval {
    double begin = 0.0;
    uint64_t count = 0;  // fanout (prepare) / buffered updates (block)
  };

  uint32_t TrackOf(VertexId vertex) const {
    return partitioner_.PartitionOf(vertex);
  }

  TraceRecorder* recorder_;
  HashPartitioner partitioner_;
  uint32_t fallback_track_;
  MetricRegistry* metrics_;  // may be null
  std::map<std::pair<LoopId, VertexId>, OpenInterval> open_prepares_;
  std::map<std::tuple<LoopId, VertexId, Iteration>, OpenInterval> open_blocks_;
};

}  // namespace tornado

#endif  // TORNADO_TRACE_TRACE_OBSERVER_H_
