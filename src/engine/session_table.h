#ifndef TORNADO_ENGINE_SESSION_TABLE_H_
#define TORNADO_ENGINE_SESSION_TABLE_H_

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/config.h"
#include "core/messages.h"
#include "engine/vertex_session.h"
#include "storage/versioned_store.h"

namespace tornado {

/// An update buffered at the delay bound (Section 4.4).
struct BlockedUpdate {
  VertexId src = 0;
  VertexId dst = 0;
  Iteration iteration = 0;
  VertexUpdate update;
};

/// Per-loop runtime state on one processor: the vertex sessions of this
/// partition plus the loop-level protocol bookkeeping (termination
/// watermark, bound-blocked buffer, per-iteration counters).
struct LoopState {
  LoopId loop = 0;
  LoopEpoch epoch = 0;
  Iteration tau = 0;  // first not-yet-terminated iteration
  std::unordered_map<VertexId, VertexSession> vertices;
  std::map<Iteration, std::vector<BlockedUpdate>> blocked;
  std::map<Iteration, IterationCounters> buckets;
  std::unordered_set<VertexId> stalled;  // dirty but held by the bound
  // Sessions that are dirty or preparing, the only ones a progress
  // report's min_work_iter depends on (VertexSession::active_slot). Held by
  // address: map nodes do not move, and a session is erased only together
  // with its loop.
  std::vector<VertexSession*> active;
  uint64_t inputs_gathered = 0;
  uint64_t prepares_sent = 0;
  uint64_t blocked_count = 0;
  uint64_t report_seq = 0;
  uint64_t writes_since_flush = 0;
};

/// Owns every VertexSession of one processor, keyed by (loop, vertex),
/// together with the load/persist path against the VersionedStore:
/// deserializing snapshot versions into sessions, serializing committed
/// states (with their consumer sets) back out, and tracking the dirty
/// version count the checkpoint flush covers. Pure state + storage — no
/// protocol decisions, no networking.
class SessionTable {
 public:
  SessionTable(const JobConfig* config, VersionedStore* store);

  // --- Loop lifecycle. ---
  LoopState* Get(LoopId loop);
  const LoopState* Get(LoopId loop) const;

  /// Creates (replacing any prior incarnation) the runtime of `loop`.
  LoopState& Create(LoopId loop, LoopEpoch epoch, Iteration tau);

  bool Has(LoopId loop) const { return loops_.count(loop) > 0; }
  void Drop(LoopId loop) { loops_.erase(loop); }
  void Clear() { loops_.clear(); }
  std::unordered_map<LoopId, LoopState>& loops() { return loops_; }
  const std::unordered_map<LoopId, LoopState>& loops() const {
    return loops_;
  }

  // --- Sessions. ---

  /// Returns the session of `id`, creating it if needed: first from the
  /// store's snapshot at `load_at`, else fresh program-initialized state.
  VertexSession& GetOrCreate(LoopState& ls, VertexId id, Iteration load_at);

  /// Loads `id`'s newest version <= `at` into `out` (both state parts,
  /// consumer set, iteration numbers). Returns false if no version exists.
  bool LoadFromStore(const LoopState& ls, VertexId id, Iteration at,
                     VertexSession* out) const;

  /// Serializes the state's iteration part + consumer set into the store
  /// at `iteration`, together with its input part: re-encoded if an input
  /// was gathered since the last persist, else the blob the session
  /// already holds. Counts the version toward the next checkpoint flush.
  void Persist(LoopState& ls, VertexSession& s, Iteration iteration);

  /// Flushes dirty versions up to `horizon` (Section 5.3's
  /// flush-before-report rule); returns how many versions were pending
  /// and resets the pending counter.
  uint64_t FlushForReport(LoopState& ls, Iteration horizon);

  /// Deterministic per-(loop, vertex) random stream seed.
  Rng MakeVertexRng(LoopId loop, VertexId id) const;

  VersionedStore* store() { return store_; }

 private:
  const JobConfig* config_;
  VersionedStore* store_;
  std::unordered_map<LoopId, LoopState> loops_;
};

}  // namespace tornado

#endif  // TORNADO_ENGINE_SESSION_TABLE_H_
