#ifndef TORNADO_CORE_VERTEX_PROGRAM_H_
#define TORNADO_CORE_VERTEX_PROGRAM_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "common/types.h"
#include "core/messages.h"
#include "stream/tuple.h"

namespace tornado {

/// Durable per-vertex algorithm state. Programs subclass this. A state has
/// two parts:
///
/// - The *iteration part* (Serialize / VertexProgram::DeserializeState):
///   everything an iteration may change. The engine writes it, together
///   with the vertex's target list, into the versioned store on every
///   commit.
/// - The optional *input part* (SerializeInput / DeserializeInput): the
///   loop-invariant fields that only VertexProgram::OnInput may change,
///   such as an SGD shard's instance reservoir. The engine re-encodes it
///   only when the vertex gathered an input since its last commit; the
///   store keeps each encoding as one immutable blob that later versions,
///   branch forks and merges share by reference.
///
/// Contract: no callback other than OnInput may change the input part.
/// TORNADO_CHECK builds re-encode it on every commit that follows no input
/// and abort if it differs from the shared blob.
struct VertexState {
  virtual ~VertexState() = default;
  virtual void Serialize(BufferWriter* writer) const = 0;

  /// Writes the input part. Default: the state has none (writes nothing).
  virtual void SerializeInput(BufferWriter* writer) const { (void)writer; }

  /// Restores the input part written by SerializeInput into a state that
  /// DeserializeState built from the iteration part. It is a state method,
  /// not a program method, so program wrappers that forward only the
  /// VertexProgram callbacks keep restoring it.
  virtual void DeserializeInput(BufferReader* reader) { (void)reader; }
};

/// The view a program callback has of its vertex. Mirrors the paper's
/// programming model (Appendix B): targets are the dependency edges, emits
/// are buffered until the engine commits the update, getLoop() is
/// loop()/is_main_loop(), and AddCost charges simulated computation time.
class VertexContext {
 public:
  virtual ~VertexContext() = default;

  virtual VertexId id() const = 0;
  virtual LoopId loop() const = 0;
  virtual bool is_main_loop() const = 0;
  virtual Iteration iteration() const = 0;

  /// The vertex's algorithm state (never null inside callbacks).
  virtual VertexState* state() = 0;

  /// Mutating the dependency graph (vertex::addTarget / removeTarget).
  /// Only legal while gathering an external input, matching the protocol's
  /// rule that inputs are not gathered during preparation because they may
  /// change the consumer set.
  virtual void AddTarget(VertexId target) = 0;
  virtual void RemoveTarget(VertexId target) = 0;

  /// Current consumers, and consumers removed since the last commit (the
  /// latter still observe exactly the next update, so SSSP can retract
  /// paths through deleted edges, Appendix B).
  virtual const std::vector<VertexId>& targets() const = 0;
  virtual const std::vector<VertexId>& retiring_targets() const = 0;

  /// Buffers an update for delivery on commit. Only legal inside
  /// Scatter(). EmitTo's target must be in targets() or retiring_targets().
  virtual void EmitToTargets(const VertexUpdate& update) = 0;
  virtual void EmitTo(VertexId target, const VertexUpdate& update) = 0;

  /// Charges extra virtual CPU seconds for the current callback.
  virtual void AddCost(double seconds) = 0;

  /// Adds to the loop's progress metric for the commit's iteration; the
  /// master's convergence policy consumes it (e.g. |Δvalue|).
  virtual void AddProgress(double delta) = 0;

  /// Deterministic per-vertex random stream.
  virtual Rng* rng() = 0;
};

/// A graph-parallel program in the style of Appendix B:
///
///   vertex::init()                    -> Init
///   vertex::gather(iter, src, delta)  -> OnInput (external deltas)
///                                        OnUpdate (vertex updates)
///   vertex::scatter(iter)             -> Scatter (called at commit)
///
/// One program instance is shared by all vertices of a job (it must be
/// stateless); per-vertex state lives in the VertexState returned by
/// CreateState.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Creates the initial state of a new vertex (vertex::init()).
  virtual std::unique_ptr<VertexState> CreateState(VertexId id) const = 0;

  /// Restores a state serialized by VertexState::Serialize (the iteration
  /// part; the engine then restores the input part, if any, through
  /// VertexState::DeserializeInput).
  virtual std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const = 0;

  /// Gathers one external input delta (only delivered in the main loop).
  /// Returns whether the vertex's state changed — only then does the
  /// engine schedule an update of the vertex. The only callback that may
  /// change the state's input part (VertexState::SerializeInput).
  virtual bool OnInput(VertexContext& ctx, const Delta& delta) const = 0;

  /// Gathers one committed update from producer `source`. Returns whether
  /// the state changed; an unchanged gather does not re-dirty the vertex,
  /// which is what lets cascades stop at the fixed point.
  virtual bool OnUpdate(VertexContext& ctx, VertexId source,
                        Iteration iteration,
                        const VertexUpdate& update) const = 0;

  /// Called when the engine commits this vertex's update; emit here.
  virtual void Scatter(VertexContext& ctx) const = 0;

  /// Called when a restored vertex is re-activated after a branch fork or
  /// a recovery rollback. The vertex will re-run Scatter; implementations
  /// must invalidate any "already sent" memoization so suppressed values
  /// (including retractions) are re-emitted — the snapshot cut may have
  /// severed in-flight updates that only this re-emission can regenerate.
  virtual void OnRestore(VertexState* state) const { (void)state; }

  /// Whether this vertex must start active when a branch loop is forked,
  /// regardless of main-loop activity. Parameter/centroid vertices return
  /// true so the branch re-drives the computation; graph vertices return
  /// false and only the approximation's frontier starts active.
  virtual bool ActivateOnFork(const VertexState& state) const {
    (void)state;
    return false;
  }

  /// Extra virtual CPU cost charged per gather/scatter call on top of the
  /// cost model's per_update_cpu; lets workloads express their relative
  /// weight (e.g. KMeans distance scans).
  virtual double GatherCost() const { return 0.0; }
  virtual double ScatterCost() const { return 0.0; }

  /// Non-null when this program opts into the batch gather path; the
  /// engine then drains queued update runs through OnUpdateBatch instead
  /// of per-update OnUpdate calls. See BatchVertexProgram.
  virtual const class BatchVertexProgram* AsBatch() const { return nullptr; }
};

/// Opt-in extension: programs that can gather a *run* of queued updates
/// for one vertex in a single pass over their state (the SoA batch
/// kernels in src/kernel/). The engine only forms runs whose intermediate
/// per-update prepare checks are provably no-ops (the vertex is already
/// preparing, or is still waiting on producers), so draining through
/// OnUpdateBatch is message-for-message identical to the per-update path
/// — docs/KERNELS.md spells out the equivalence argument.
class BatchVertexProgram : public VertexProgram {
 public:
  /// One queued update, exactly the OnUpdate argument triple. The pointed
  /// -to update lives until OnUpdateBatch returns.
  struct QueuedUpdate {
    VertexId source;
    Iteration iteration;
    const VertexUpdate* update;
  };

  const BatchVertexProgram* AsBatch() const final { return this; }

  /// Gathers `items[0..n)` in order. Returns whether any state changed
  /// (the OR of what per-update OnUpdate calls would have returned).
  ///
  /// Cost contract: after applying each item (including any AddCost the
  /// per-update path would make for it), the implementation must call
  /// `ctx.AddCost(per_item_cost)` — this reproduces the per-update
  /// accounting order bit-for-bit, which the deterministic virtual clock
  /// depends on. The default implementation just replays OnUpdate.
  ///
  /// ctx.iteration() is the vertex's iteration after the whole run was
  /// bookkept; implementations must not depend on it varying per item.
  virtual bool OnUpdateBatch(VertexContext& ctx, const QueuedUpdate* items,
                             size_t n, double per_item_cost) const {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (OnUpdate(ctx, items[i].source, items[i].iteration,
                   *items[i].update)) {
        changed = true;
      }
      ctx.AddCost(per_item_cost);
    }
    return changed;
  }
};

}  // namespace tornado

#endif  // TORNADO_CORE_VERTEX_PROGRAM_H_
