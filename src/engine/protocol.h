#ifndef TORNADO_ENGINE_PROTOCOL_H_
#define TORNADO_ENGINE_PROTOCOL_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/lamport_clock.h"
#include "core/config.h"
#include "core/messages.h"
#include "engine/consistency_policy.h"
#include "engine/observer.h"
#include "engine/session_table.h"
#include "graph/dynamic_graph.h"
#include "net/payload.h"

namespace tornado {

/// Side effects one dispatch asks the host to carry out, in order:
/// messages to transmit (vertex-addressed ones are routed to the owning
/// processor by the adapter; report messages go to the master) and
/// virtual CPU cost to charge. The state machine itself never touches a
/// network or a clock beyond its Lamport clock — this is its only output
/// channel, which is what makes it unit-testable in isolation.
struct EngineActions {
  struct Outbound {
    VertexId dst_vertex = 0;  // ignored when to_master is set
    bool to_master = false;
    PayloadPtr payload;
  };
  std::vector<Outbound> messages;
  double cost = 0.0;  // virtual CPU seconds to charge the current handler

  bool empty() const { return messages.empty() && cost == 0.0; }
  void Clear() {
    messages.clear();
    cost = 0.0;
  }
};

/// The three-phase update protocol of Section 4.2 as a pure
/// message-in/actions-out state machine: gather (inputs/updates) →
/// prepare (Lamport-ordered PREPARE/ACK negotiation) → commit (scatter,
/// fan-out, persist), plus orphan parking for early-arriving loop
/// traffic, stale-epoch and stale-merge discarding, delay-bound blocking
/// (delegated to the ConsistencyPolicy), and progress-report assembly.
///
/// It owns no sockets, timers, or threads; the Processor adapter feeds it
/// messages and executes the returned actions. All engine accounting
/// flows through the EngineObserver.
class ProtocolStateMachine {
 public:
  ProtocolStateMachine(uint32_t index, const JobConfig* config,
                       SessionTable* sessions, HashPartitioner partitioner,
                       EngineObserver* observer);

  /// Routes one engine message into the protocol, appending the resulting
  /// actions to `out`. Returns false if the payload is not an engine
  /// message (the caller decides what to do with it).
  bool Dispatch(const Payload& msg, EngineActions* out);

  /// Builds the periodic progress report for one loop, flushing dirty
  /// versions first (Section 5.3). The report is appended to `out`
  /// (addressed to the master) and also returned.
  std::shared_ptr<ProgressMsg> BuildReport(LoopState& ls,
                                           EngineActions* out);

  /// Materializes the main loop eagerly (the master needs a report from
  /// every processor before it can terminate an iteration).
  void EnsureMainLoop();

  /// Drops all protocol state: sessions, parked orphans, loop runtimes
  /// (worker process restart, Section 5.3).
  void Reset();

  /// Highest iteration a commit may land at in `ls` right now.
  Iteration BoundIteration(const LoopState& ls) const {
    return policy_.CommitHorizon(ls.tau);
  }

  SessionTable& sessions() { return *sessions_; }

 private:
  // Message handlers (one per engine payload type).
  void HandleInput(const InputMsg& msg, EngineActions* out);
  void HandleUpdate(const UpdateMsg& msg, EngineActions* out);
  void HandlePrepare(const PrepareMsg& msg, EngineActions* out);
  void HandleAck(const AckMsg& msg, EngineActions* out);
  void HandleTerminated(const TerminatedMsg& msg, EngineActions* out);
  void HandleForkBranch(const ForkBranchMsg& msg, EngineActions* out);
  void HandleRestartLoop(const RestartLoopMsg& msg, EngineActions* out);
  void HandleStopLoop(const StopLoopMsg& msg);
  void HandleAdoptMerge(const AdoptMergeMsg& msg);

  // Protocol steps.
  void GatherInput(LoopState& ls, VertexSession& s, const Delta& delta,
                   EngineActions* out);
  void GatherUpdate(LoopState& ls, VertexSession& s, VertexId source,
                    Iteration iteration, const VertexUpdate& update,
                    EngineActions* out);
  void MaybePrepare(LoopState& ls, VertexSession& s, EngineActions* out);
  void Commit(LoopState& ls, VertexSession& s, Iteration iteration,
              EngineActions* out);
  void ReleaseBlocked(LoopState& ls, EngineActions* out);
  void RetryStalled(LoopState& ls, EngineActions* out);

  // Messages for a loop/epoch this processor has not created yet (the
  // fork/restart broadcast may still be in flight) are parked and
  // replayed once the loop materializes; stale-epoch traffic is dropped.
  void MaybeOrphan(LoopId loop, LoopEpoch epoch, PayloadPtr msg);
  void ReplayOrphans(LoopId loop, LoopEpoch epoch, EngineActions* out);

  // Helpers.
  LoopState* ResolveLoop(LoopId loop, LoopEpoch epoch);
  LoopState& CreateLoop(LoopId loop, LoopEpoch epoch, Iteration tau);
  VertexSession& GetOrCreateVertex(LoopState& ls, VertexId id);
  void PersistVertex(LoopState& ls, VertexSession& s, Iteration iteration,
                     EngineActions* out);
  Iteration MinCommitIteration(const LoopState& ls,
                               const VertexSession& s) const;
  bool OwnsVertex(VertexId v) const {
    return partitioner_.PartitionOf(v) == index_;
  }

  /// Fresh causal round id for tracing (see net/payload.h): the processor
  /// index in the high bits keeps ids globally unique without
  /// coordination, and the per-processor counter keeps them deterministic.
  uint64_t NextCause() {
    return (static_cast<uint64_t>(index_ + 1) << 40) | ++next_cause_;
  }
  static void SendToVertex(EngineActions* out, VertexId dst, PayloadPtr msg);
  static void SendToMaster(EngineActions* out, PayloadPtr msg);

  uint32_t index_;
  const JobConfig* config_;
  SessionTable* sessions_;
  ConsistencyPolicy policy_;
  HashPartitioner partitioner_;
  EngineObserver* observer_;  // never null (defaults to a no-op)
  LamportClock clock_;
  uint64_t next_cause_ = 0;  // trace round counter (see NextCause)
  std::map<std::pair<LoopId, LoopEpoch>, std::vector<PayloadPtr>> orphans_;
};

}  // namespace tornado

#endif  // TORNADO_ENGINE_PROTOCOL_H_
