#ifndef TORNADO_ENGINE_OBSERVER_H_
#define TORNADO_ENGINE_OBSERVER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace tornado {

/// Epoch of a loop's execution (also defined in core/messages.h; duplicated
/// here so the observer interface stays header-light).
using LoopEpoch = uint32_t;

/// Hook interface over protocol events. The ProtocolStateMachine invokes
/// these synchronously as it processes messages; subscribers (the metric
/// registry, the runtime invariant checker, debug tooling, benches) observe
/// engine activity without the engine hard-coding any accounting.
/// Implementations must not call back into the engine.
///
/// Events carry enough context (loop epoch, producer/consumer ids, the
/// committing processor's termination watermark and commit horizon) for a
/// cluster-wide subscriber to check the protocol's safety invariants — see
/// CheckObserver in src/check/invariant_checker.h and docs/CHECKS.md.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  /// One external input delta was gathered by `vertex` in `loop`.
  virtual void OnInputGathered(LoopId /*loop*/, VertexId /*vertex*/) {}

  /// A vertex started a prepare round, fanning PREPAREs out to `fanout`
  /// consumers (Section 4.2's second phase).
  virtual void OnPrepare(LoopId /*loop*/, LoopEpoch /*epoch*/,
                         VertexId /*producer*/, uint64_t /*fanout*/) {}

  /// `consumer` sent (immediately or deferred-then-released) one ACK to
  /// `producer`, reporting `iteration`.
  virtual void OnAck(LoopId /*loop*/, LoopEpoch /*epoch*/,
                     VertexId /*consumer*/, VertexId /*producer*/,
                     Iteration /*iteration*/) {}

  /// A vertex committed its update at `iteration` (third phase), while its
  /// processor's first not-yet-terminated iteration was `tau` and the
  /// consistency policy's commit horizon was `horizon`. Fired after the
  /// committed state has been persisted to the VersionedStore.
  virtual void OnCommit(LoopId /*loop*/, LoopEpoch /*epoch*/,
                        VertexId /*vertex*/, Iteration /*iteration*/,
                        Iteration /*tau*/, Iteration /*horizon*/) {}

  /// An arriving update was buffered at the delay bound (Section 4.4).
  virtual void OnBlock(LoopId /*loop*/, LoopEpoch /*epoch*/,
                       VertexId /*vertex*/, Iteration /*iteration*/) {}

  /// A bound-buffered update for `vertex` was released for gathering after
  /// the termination watermark advanced (closes a matching OnBlock; the
  /// trace layer turns the pair into a stall interval).
  virtual void OnUnblocked(LoopId /*loop*/, LoopEpoch /*epoch*/,
                           VertexId /*vertex*/, Iteration /*iteration*/) {}

  /// `versions` dirty store versions were flushed before a progress
  /// report (Section 5.3's checkpoint rule).
  virtual void OnFlush(LoopId /*loop*/, uint64_t /*versions*/) {}

  /// Processor `processor` built a progress report for `loop`, examining
  /// `sessions_visited` vertex sessions to find its minimum pending work.
  virtual void OnReport(LoopId /*loop*/, uint32_t /*processor*/,
                        uint64_t /*sessions_visited*/) {}

  // --- Lifecycle events (consumed by the invariant checker). ---

  /// Processor `processor` (re)materialized the runtime of `loop` under
  /// `epoch`, starting at termination watermark `tau`.
  virtual void OnLoopCreated(LoopId /*loop*/, LoopEpoch /*epoch*/,
                             Iteration /*tau*/, uint32_t /*processor*/) {}

  /// Processor `processor` dropped the runtime of `loop` (StopLoop).
  virtual void OnLoopDropped(LoopId /*loop*/, uint32_t /*processor*/) {}

  /// Processor `processor` lost all in-memory protocol state (worker
  /// process restart, Section 5.3).
  virtual void OnEngineReset(uint32_t /*processor*/) {}

  /// Processor `processor` advanced `loop`'s termination watermark to
  /// `new_tau` (all iterations below it are globally terminated).
  virtual void OnTerminated(LoopId /*loop*/, LoopEpoch /*epoch*/,
                            uint32_t /*processor*/, Iteration /*new_tau*/) {}

  /// A vertex adopted merged branch results at `merge_iteration`
  /// (Section 5.2's merge-back at tau + B).
  virtual void OnMergeAdopted(LoopId /*loop*/, LoopEpoch /*epoch*/,
                              VertexId /*vertex*/,
                              Iteration /*merge_iteration*/) {}
};

/// Fans every event out to a dynamic list of subscribers. Subscribers must
/// outlive the list; registration order is notification order.
class EngineObserverList final : public EngineObserver {
 public:
  void Add(EngineObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  void OnInputGathered(LoopId loop, VertexId vertex) override {
    for (EngineObserver* o : observers_) o->OnInputGathered(loop, vertex);
  }
  void OnPrepare(LoopId loop, LoopEpoch epoch, VertexId producer,
                 uint64_t fanout) override {
    for (EngineObserver* o : observers_) {
      o->OnPrepare(loop, epoch, producer, fanout);
    }
  }
  void OnAck(LoopId loop, LoopEpoch epoch, VertexId consumer,
             VertexId producer, Iteration iteration) override {
    for (EngineObserver* o : observers_) {
      o->OnAck(loop, epoch, consumer, producer, iteration);
    }
  }
  void OnCommit(LoopId loop, LoopEpoch epoch, VertexId vertex,
                Iteration iteration, Iteration tau,
                Iteration horizon) override {
    for (EngineObserver* o : observers_) {
      o->OnCommit(loop, epoch, vertex, iteration, tau, horizon);
    }
  }
  void OnBlock(LoopId loop, LoopEpoch epoch, VertexId vertex,
               Iteration iteration) override {
    for (EngineObserver* o : observers_) {
      o->OnBlock(loop, epoch, vertex, iteration);
    }
  }
  void OnUnblocked(LoopId loop, LoopEpoch epoch, VertexId vertex,
                   Iteration iteration) override {
    for (EngineObserver* o : observers_) {
      o->OnUnblocked(loop, epoch, vertex, iteration);
    }
  }
  void OnFlush(LoopId loop, uint64_t versions) override {
    for (EngineObserver* o : observers_) o->OnFlush(loop, versions);
  }
  void OnReport(LoopId loop, uint32_t processor,
                uint64_t sessions_visited) override {
    for (EngineObserver* o : observers_) {
      o->OnReport(loop, processor, sessions_visited);
    }
  }
  void OnLoopCreated(LoopId loop, LoopEpoch epoch, Iteration tau,
                     uint32_t processor) override {
    for (EngineObserver* o : observers_) {
      o->OnLoopCreated(loop, epoch, tau, processor);
    }
  }
  void OnLoopDropped(LoopId loop, uint32_t processor) override {
    for (EngineObserver* o : observers_) o->OnLoopDropped(loop, processor);
  }
  void OnEngineReset(uint32_t processor) override {
    for (EngineObserver* o : observers_) o->OnEngineReset(processor);
  }
  void OnTerminated(LoopId loop, LoopEpoch epoch, uint32_t processor,
                    Iteration new_tau) override {
    for (EngineObserver* o : observers_) {
      o->OnTerminated(loop, epoch, processor, new_tau);
    }
  }
  void OnMergeAdopted(LoopId loop, LoopEpoch epoch, VertexId vertex,
                      Iteration merge_iteration) override {
    for (EngineObserver* o : observers_) {
      o->OnMergeAdopted(loop, epoch, vertex, merge_iteration);
    }
  }

 private:
  std::vector<EngineObserver*> observers_;
};

}  // namespace tornado

#endif  // TORNADO_ENGINE_OBSERVER_H_
