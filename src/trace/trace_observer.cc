#include "trace/trace_observer.h"

#include <iterator>

namespace tornado {

using trace_cat::kFailure;
using trace_cat::kFlow;
using trace_cat::kNet;
using trace_cat::kProtocol;

TraceObserver::TraceObserver(TraceRecorder* recorder,
                             HashPartitioner partitioner,
                             uint32_t fallback_track, MetricRegistry* metrics)
    : recorder_(recorder),
      partitioner_(partitioner),
      fallback_track_(fallback_track),
      metrics_(metrics) {}

// ---------------------------------------------------------------------------
// Engine events
// ---------------------------------------------------------------------------

void TraceObserver::OnInputGathered(LoopId loop, VertexId vertex) {
  recorder_->Instant(kProtocol, "gather_input", TrackOf(vertex),
                     {{"loop", loop}, {"vertex", vertex}});
}

void TraceObserver::OnPrepare(LoopId loop, LoopEpoch epoch, VertexId producer,
                              uint64_t fanout) {
  if (!recorder_->enabled()) return;
  OpenInterval& open = open_prepares_[{loop, producer}];
  open.begin = recorder_->now();
  open.count = fanout;
  recorder_->Instant(kProtocol, "prepare", TrackOf(producer),
                     {{"loop", loop},
                      {"vertex", producer},
                      {"epoch", epoch},
                      {"fanout", fanout}});
}

void TraceObserver::OnAck(LoopId loop, LoopEpoch epoch, VertexId consumer,
                          VertexId producer, Iteration iteration) {
  recorder_->Instant(kProtocol, "ack", TrackOf(consumer),
                     {{"loop", loop},
                      {"consumer", consumer},
                      {"producer", producer},
                      {"epoch", epoch},
                      {"iteration", iteration}});
}

void TraceObserver::OnCommit(LoopId loop, LoopEpoch epoch, VertexId vertex,
                             Iteration iteration, Iteration tau,
                             Iteration horizon) {
  if (metrics_ != nullptr && iteration >= tau) {
    metrics_->Observe(metric::kCommitStaleness,
                      static_cast<double>(iteration - tau));
  }
  if (!recorder_->enabled()) return;
  const uint32_t track = TrackOf(vertex);
  auto it = open_prepares_.find({loop, vertex});
  if (it != open_prepares_.end()) {
    recorder_->Span(kProtocol, "prepare_round", track, it->second.begin,
                    recorder_->now(),
                    {{"loop", loop},
                     {"vertex", vertex},
                     {"iteration", iteration},
                     {"fanout", it->second.count}});
    open_prepares_.erase(it);
  }
  recorder_->Instant(kProtocol, "commit", track,
                     {{"loop", loop},
                      {"vertex", vertex},
                      {"epoch", epoch},
                      {"iteration", iteration},
                      {"tau", tau},
                      {"horizon", horizon}});
}

void TraceObserver::OnBlock(LoopId loop, LoopEpoch epoch, VertexId vertex,
                            Iteration iteration) {
  if (!recorder_->enabled()) return;
  OpenInterval& open = open_blocks_[{loop, vertex, iteration}];
  if (open.count == 0) open.begin = recorder_->now();
  ++open.count;
  recorder_->Instant(kProtocol, "block", TrackOf(vertex),
                     {{"loop", loop},
                      {"vertex", vertex},
                      {"epoch", epoch},
                      {"iteration", iteration}});
}

void TraceObserver::OnUnblocked(LoopId loop, LoopEpoch epoch, VertexId vertex,
                                Iteration iteration) {
  if (!recorder_->enabled()) return;
  auto it = open_blocks_.find({loop, vertex, iteration});
  if (it == open_blocks_.end()) return;  // block predates the trace window
  recorder_->Span(kProtocol, "blocked_at_bound", TrackOf(vertex),
                  it->second.begin, recorder_->now(),
                  {{"loop", loop},
                   {"vertex", vertex},
                   {"epoch", epoch},
                   {"iteration", iteration},
                   {"updates", it->second.count}});
  open_blocks_.erase(it);
}

void TraceObserver::OnFlush(LoopId loop, uint64_t versions) {
  recorder_->Instant(kProtocol, "store_flush", fallback_track_,
                     {{"loop", loop}, {"versions", versions}});
}

void TraceObserver::OnLoopCreated(LoopId loop, LoopEpoch epoch, Iteration tau,
                                  uint32_t processor) {
  recorder_->Instant(kProtocol, "loop_created", processor,
                     {{"loop", loop}, {"epoch", epoch}, {"tau", tau}});
}

void TraceObserver::OnLoopDropped(LoopId loop, uint32_t processor) {
  recorder_->Instant(kProtocol, "loop_dropped", processor, {{"loop", loop}});
  // Open intervals of the dropped loop can never close; discard them.
  for (auto it = open_prepares_.begin(); it != open_prepares_.end();) {
    it = it->first.first == loop ? open_prepares_.erase(it) : std::next(it);
  }
  for (auto it = open_blocks_.begin(); it != open_blocks_.end();) {
    it = std::get<0>(it->first) == loop ? open_blocks_.erase(it)
                                        : std::next(it);
  }
}

void TraceObserver::OnEngineReset(uint32_t processor) {
  recorder_->Instant(kProtocol, "engine_reset", processor, {});
  // The restarted processor's sessions are gone; every open interval is a
  // cluster-wide mix, but a reset is rare enough that dropping all of
  // them (rather than tracking per-processor ownership) is acceptable —
  // spans never straddle a restart anyway.
  open_prepares_.clear();
  open_blocks_.clear();
}

void TraceObserver::OnTerminated(LoopId loop, LoopEpoch epoch,
                                 uint32_t processor, Iteration new_tau) {
  recorder_->Instant(kProtocol, "watermark_advance", processor,
                     {{"loop", loop}, {"epoch", epoch}, {"tau", new_tau}});
}

void TraceObserver::OnMergeAdopted(LoopId loop, LoopEpoch epoch,
                                   VertexId vertex,
                                   Iteration merge_iteration) {
  recorder_->Instant(kProtocol, "merge_adopted", TrackOf(vertex),
                     {{"loop", loop},
                      {"vertex", vertex},
                      {"epoch", epoch},
                      {"iteration", merge_iteration}});
}

// ---------------------------------------------------------------------------
// Transport events
// ---------------------------------------------------------------------------

void TraceObserver::OnSend(NodeId src, NodeId dst, const Payload& payload) {
  if (!recorder_->enabled()) return;
  const double ts = recorder_->now();
  // Zero-duration slice (not an instant): flows can only bind to slices.
  recorder_->Span(kNet, payload.name(), src, ts, ts,
                  {{"dst", dst}, {"cause", payload.cause_id}});
  if (payload.cause_id != 0) {
    recorder_->Flow('s', kFlow, "cause", src, payload.cause_id);
  }
}

void TraceObserver::OnDeliver(NodeId src, NodeId dst, const Payload& payload) {
  if (!recorder_->enabled()) return;
  const double ts = recorder_->now();
  recorder_->Span(kNet, payload.name(), dst, ts, ts,
                  {{"src", src}, {"cause", payload.cause_id}});
  if (payload.cause_id != 0) {
    recorder_->Flow('f', kFlow, "cause", dst, payload.cause_id);
  }
}

void TraceObserver::OnNodeKilled(NodeId node) {
  recorder_->Instant(kFailure, "node_killed", node, {{"node", node}});
}

void TraceObserver::OnNodeRecovered(NodeId node) {
  recorder_->Instant(kFailure, "node_recovered", node, {{"node", node}});
}

}  // namespace tornado
