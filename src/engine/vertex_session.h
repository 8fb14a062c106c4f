#ifndef TORNADO_ENGINE_VERTEX_SESSION_H_
#define TORNADO_ENGINE_VERTEX_SESSION_H_

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/lamport_clock.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/messages.h"
#include "core/vertex_program.h"
#include "storage/versioned_store.h"

namespace tornado {

/// Per-(loop, vertex) protocol state: one session exists for every loop a
/// vertex participates in (Section 5.1's session layer). Owned by the
/// SessionTable; mutated only by the ProtocolStateMachine and the
/// callback context it hands to programs.
/// A PREPARE whose acknowledgement was deferred until this vertex's own
/// commit (the Lamport order said the producer's update happens-after).
/// `cause` echoes the prepare's trace round id back on the eventual ack.
struct DeferredAck {
  VertexId producer = 0;
  LamportTime prepare_time;
  uint64_t cause = 0;
};

struct VertexSession {
  VertexId id = 0;
  std::unique_ptr<VertexState> state;
  // The state's encoded input part as last loaded or persisted, shared
  // with the store's versions (null: no input part). Re-encoded on the
  // next persist only when `input_changed`: an input was gathered since,
  // or the state is fresh and its input part was never encoded.
  InputBlob input;
  bool input_changed = false;
  Iteration iter = 0;              // protocol iteration number
  Iteration last_commit = kNoIteration;
  std::optional<LamportTime> update_time;  // set while preparing
  std::set<VertexId> prepare_list;         // producers preparing us
  std::set<VertexId> waiting_list;         // consumers we await acks from
  std::vector<DeferredAck> pending_list;
  uint64_t prepare_cause = 0;  // trace round id of the in-flight prepare
  bool dirty = false;
  std::deque<Delta> pending_inputs;  // inputs deferred during preparation
  Iteration merge_floor = 0;         // updates below this are stale
  Rng rng{0};

  // --- Consumer-set bookkeeping. Prepare fan-out and emissions iterate
  // the vectors (deterministic insertion order); the companion hash sets
  // make membership O(1), so high-degree vertices do not go quadratic
  // while gathering inputs.

  const std::vector<VertexId>& targets() const { return targets_; }

  /// Consumers removed since the last commit; they still observe exactly
  /// the next update (retraction delivery, Appendix B).
  const std::vector<VertexId>& retiring() const { return retiring_; }

  bool HasTarget(VertexId t) const { return target_set_.count(t) > 0; }
  bool IsRetiring(VertexId t) const { return retiring_set_.count(t) > 0; }

  /// Adds a consumer. Re-adding a retiring consumer cancels its
  /// retirement; adding a present consumer is a no-op.
  void AddTarget(VertexId t);

  /// Moves a consumer to the retiring list. Absent consumers are ignored.
  void RemoveTarget(VertexId t);

  /// Replaces the consumer set wholesale (store load / merge adoption).
  /// The retiring list is left untouched.
  void SetTargets(std::vector<VertexId> targets);

  void ClearRetiring();

 private:
  std::vector<VertexId> targets_;
  std::unordered_set<VertexId> target_set_;
  std::vector<VertexId> retiring_;  // removed since last commit
  std::unordered_set<VertexId> retiring_set_;
};

}  // namespace tornado

#endif  // TORNADO_ENGINE_VERTEX_SESSION_H_
