#ifndef TORNADO_CORE_MESSAGES_H_
#define TORNADO_CORE_MESSAGES_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/lamport_clock.h"
#include "common/types.h"
#include "net/payload.h"
#include "stream/tuple.h"

namespace tornado {

/// Value carried by a committed vertex update (the argument of gather()).
/// `kind` disambiguates update flavors within one program (e.g., SSSP's
/// UPDATE vs. the engine-generated retraction on removeTarget).
struct VertexUpdate {
  int kind = 0;
  std::vector<double> values;
};

/// Reserved update kind: a commit notification with no payload. Every
/// commit reaches every consumer (as in the paper, where scatter hits all
/// targets); when the program suppresses a redundant value for some
/// consumer, the session layer sends this no-op instead so the consumer
/// still observes the commit (clearing its PrepareList) without being
/// re-dirtied. Programs must not use this kind themselves.
inline constexpr int kNoopUpdateKind = -1;

/// Epoch of a loop's execution: bumped on every recovery rollback so that
/// in-flight messages from before the rollback are discarded (Section 5.3).
using LoopEpoch = uint32_t;

// ---------------------------------------------------------------------------
// Ingester -> processor
// ---------------------------------------------------------------------------

/// One routed input delta destined for a vertex of the main loop.
struct InputMsg : Payload {
  LoopId loop = kMainLoop;
  LoopEpoch epoch = 0;
  VertexId target = 0;
  Delta delta;
  const char* name() const override { return "Input"; }
};

// ---------------------------------------------------------------------------
// Vertex <-> vertex (routed processor -> processor): the three-phase
// update protocol of Section 4.2.
//
// Causal tracing: the engine stamps Payload::cause_id (see net/payload.h)
// with one fresh round id per prepare fanout. PrepareMsg, the AckMsgs that
// answer it, and the UpdateMsg scatter of the commit it enabled share that
// id. All other messages leave cause_id at 0.
// ---------------------------------------------------------------------------

/// Commit-phase message: the producer's new value and iteration number.
struct UpdateMsg : Payload {
  LoopId loop = 0;
  LoopEpoch epoch = 0;
  VertexId src_vertex = 0;
  VertexId dst_vertex = 0;
  Iteration iteration = 0;
  VertexUpdate update;
  const char* name() const override { return "Update"; }
};

/// Prepare-phase message: producer announces its intent to update, stamped
/// with its Lamport clock.
struct PrepareMsg : Payload {
  LoopId loop = 0;
  LoopEpoch epoch = 0;
  VertexId src_vertex = 0;
  VertexId dst_vertex = 0;
  LamportTime time;
  const char* name() const override { return "Prepare"; }
};

/// Acknowledgement of a PREPARE, carrying the consumer's iteration number.
struct AckMsg : Payload {
  LoopId loop = 0;
  LoopEpoch epoch = 0;
  VertexId src_vertex = 0;  // the consumer (sender of the ack)
  VertexId dst_vertex = 0;  // the preparing producer
  Iteration iteration = 0;
  const char* name() const override { return "Ack"; }
};

// ---------------------------------------------------------------------------
// Processor <-> master: progress collection, iteration termination,
// loop control (Sections 4.3, 5.1, 5.2).
// ---------------------------------------------------------------------------

/// Per-iteration-bucket cumulative counters reported by a processor.
struct IterationCounters {
  uint64_t committed = 0;  // commits whose iteration is this bucket
  uint64_t sent = 0;       // UPDATE messages sent tagged with this bucket
  uint64_t owned = 0;      // UPDATE messages received (gathered or blocked)
  uint64_t gathered = 0;   // UPDATE messages actually gathered
  double progress = 0.0;   // user progress metric committed in this bucket
};

/// Periodic progress report for one loop on one processor.
struct ProgressMsg : Payload {
  LoopId loop = 0;
  LoopEpoch epoch = 0;
  uint32_t processor = 0;   // processor index (not NodeId)
  Iteration local_tau = 0;  // first locally-unterminated iteration
  /// Smallest iteration any local pending work (dirty or preparing vertex)
  /// could still commit at; kNoIteration when the processor is quiescent.
  /// The master can only terminate iterations strictly below the global
  /// minimum of this value.
  Iteration min_work_iter = kNoIteration;
  uint64_t blocked_updates = 0;  // updates buffered at the delay bound
  uint64_t inputs_gathered = 0;  // cumulative external inputs gathered
  uint64_t prepares_sent = 0;    // cumulative PREPARE messages sent
  uint64_t report_seq = 0;       // monotonically increasing per processor
  /// Buckets >= the last globally terminated iteration.
  std::map<Iteration, IterationCounters> buckets;
  const char* name() const override { return "Progress"; }
};

/// Master -> processors: iterations up to and including `upto` terminated.
struct TerminatedMsg : Payload {
  LoopId loop = 0;
  LoopEpoch epoch = 0;
  Iteration upto = 0;
  const char* name() const override { return "Terminated"; }
};

/// Master -> processors: fork a branch loop from `parent`'s snapshot at
/// `snapshot_iteration` (already materialized in the store under `branch`).
struct ForkBranchMsg : Payload {
  LoopId branch = 0;
  LoopId parent = kMainLoop;
  LoopEpoch epoch = 0;
  Iteration snapshot_iteration = 0;
  uint64_t query_id = 0;
  const char* name() const override { return "ForkBranch"; }
};

/// Master -> processors: drop a finished loop's runtime state.
struct StopLoopMsg : Payload {
  LoopId loop = 0;
  const char* name() const override { return "StopLoop"; }
};

/// Master -> processors: roll a loop back to `from_iteration` under a new
/// epoch (recovery after a processor failure, Section 5.3).
struct RestartLoopMsg : Payload {
  LoopId loop = 0;
  LoopEpoch new_epoch = 0;
  Iteration from_iteration = 0;
  const char* name() const override { return "RestartLoop"; }
};

/// Master -> processors: adopt branch results merged into the main loop at
/// `merge_iteration` (= tau + B, Section 5.2).
struct AdoptMergeMsg : Payload {
  LoopId loop = kMainLoop;
  LoopEpoch epoch = 0;
  Iteration merge_iteration = 0;
  const char* name() const override { return "AdoptMerge"; }
};

/// Processor -> master: announces (re)start so the master can trigger the
/// recovery protocol.
struct ProcessorHelloMsg : Payload {
  uint32_t processor = 0;
  bool restarted = false;
  const char* name() const override { return "ProcessorHello"; }
};

/// Master -> everyone after its own restart: forces processors to re-send
/// full progress state.
struct MasterHelloMsg : Payload {
  const char* name() const override { return "MasterHello"; }
};

// ---------------------------------------------------------------------------
// Queries (Section 5.2): user -> ingester -> master -> (branch loop) ->
// result notification back through the ingester.
// ---------------------------------------------------------------------------

struct QueryMsg : Payload {
  uint64_t query_id = 0;
  double submit_time = 0.0;  // virtual time the user issued the request
  const char* name() const override { return "Query"; }
};

struct QueryResultMsg : Payload {
  uint64_t query_id = 0;
  LoopId branch = 0;
  Iteration converged_iteration = 0;
  double submit_time = 0.0;
  const char* name() const override { return "QueryResult"; }
};

}  // namespace tornado

#endif  // TORNADO_CORE_MESSAGES_H_
