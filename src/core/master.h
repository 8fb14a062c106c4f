#ifndef TORNADO_CORE_MASTER_H_
#define TORNADO_CORE_MASTER_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/messages.h"
#include "engine/consistency_policy.h"
#include "runtime/substrate.h"
#include "storage/versioned_store.h"

namespace tornado {

class TraceRecorder;

/// Statistics recorded when an iteration terminates; the benches read these
/// to reproduce Table 2 and Figure 8a.
struct IterationStat {
  Iteration iteration = 0;
  double terminated_at = 0.0;  // virtual time
  uint64_t committed = 0;
  uint64_t sent = 0;
  double progress = 0.0;
};

/// One user query and its branch loop (Section 5.2).
struct QueryRecord {
  uint64_t query_id = 0;
  LoopId branch = 0;
  Iteration snapshot_iteration = 0;
  double submit_time = 0.0;
  double fork_time = 0.0;
  double converge_time = -1.0;
  Iteration converged_iteration = 0;
  bool done = false;
  bool merged = false;

  double Latency() const { return done ? converge_time - submit_time : -1.0; }
};

/// The coordinator node (Section 5.1): collects per-processor progress,
/// detects iteration termination (Section 4.3) with a Mattern-style double
/// collection, evaluates loop convergence, forks branch loops on queries,
/// merges converged branches back into the main loop, and drives recovery
/// after processor failures (Section 5.3). Its own control state is
/// journaled into the shared store so it survives master failures.
class Master : public Node {
 public:
  Master(const JobConfig* config, VersionedStore* store,
         NodeId first_processor_node, NodeId ingester_node);

  void OnMessage(NodeId src, const Payload& msg) override;
  void OnRestart() override;

  // --- Introspection for drivers / benches (read-only). ---

  /// Last terminated iteration of a loop (kNoIteration if none).
  Iteration LastTerminated(LoopId loop) const;

  /// Per-iteration stats of a loop, in termination order.
  const std::vector<IterationStat>& StatsOf(LoopId loop) const;

  /// Total committed updates / PREPARE messages observed for a loop.
  uint64_t TotalCommitted(LoopId loop) const;
  uint64_t TotalPrepares(LoopId loop) const;

  const std::vector<QueryRecord>& queries() const { return queries_; }

  /// Subscribes a trace recorder to master decisions (loop forks,
  /// termination, convergence, merges, recovery rollbacks). Pass nullptr
  /// to detach. The recorder must outlive the master.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  /// One aggregated bucket as double collection compares it.
  struct BucketSnapshot {
    Iteration iteration = 0;
    uint64_t committed = 0;
    uint64_t sent = 0;
    uint64_t gathered = 0;
    bool operator==(const BucketSnapshot&) const = default;
  };

  struct LoopControl {
    LoopId loop = 0;
    LoopEpoch epoch = 0;
    bool is_branch = false;
    LoopId parent = kMainLoop;
    Iteration snapshot_iteration = 0;
    uint64_t query_id = 0;
    uint64_t inputs_at_fork = 0;
    Iteration last_terminated = kNoIteration;
    bool converged = false;
    uint32_t small_progress_run = 0;
    bool progress_seen = false;  // epsilon window opens after real work
    // Latest report per processor index (empty until first report).
    std::vector<std::optional<ProgressMsg>> latest;
    // Double-collection state: the first collection's candidate and the
    // aggregated counters of its buckets at or below the candidate, and
    // each processor's report sequence number when it was taken.
    Iteration snapshot_candidate = 0;
    std::vector<BucketSnapshot> snapshot;
    bool has_snapshot = false;
    std::vector<uint64_t> snapshot_seqs;
    std::vector<IterationStat> stats;
  };

  void HandleProgress(const ProgressMsg& msg);
  void HandleQuery(const QueryMsg& msg);
  void HandleHello(const ProcessorHelloMsg& msg);
  void ForkBranchFor(uint64_t query_id, double submit_time);
  void MaybeAdmitQueuedQueries();
  uint32_t RunningBranches() const;

  void TryTerminate(LoopControl& lc);
  void Terminate(LoopControl& lc, Iteration upto);
  void CheckConvergence(LoopControl& lc, Iteration newly_terminated_from);
  void OnLoopConverged(LoopControl& lc);
  void MergeBranch(LoopControl& branch);
  void RecoverAfterProcessorFailure();

  void Broadcast(PayloadPtr msg);
  uint64_t MainInputsGathered() const;

  void PersistJournal();
  bool LoadJournal();

  const JobConfig* config_;
  VersionedStore* store_;
  NodeId first_processor_node_;
  NodeId ingester_node_;
  /// Where branch merges land relative to τ (engine/consistency_policy.h).
  ConsistencyPolicy policy_;
  std::map<LoopId, LoopControl> loops_;
  std::vector<QueryRecord> queries_;
  /// Queries awaiting a branch slot: (query id, submit time).
  std::vector<std::pair<uint64_t, double>> admission_queue_;
  LoopId next_branch_id_ = 1;
  bool recovery_pending_ = false;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace tornado

#endif  // TORNADO_CORE_MASTER_H_
