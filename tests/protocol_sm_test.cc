// Unit tests for the ProtocolStateMachine in isolation: no EventLoop, no
// Network, no Processor — messages go in, actions come out, and the test
// inspects the SessionTable, the VersionedStore, and a recording observer.

#include <gtest/gtest.h>

#include <memory>
#include <variant>
#include <vector>

#include "common/serde.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/vertex_program.h"
#include "engine/observer.h"
#include "engine/protocol.h"
#include "engine/session_table.h"
#include "engine/vertex_session.h"
#include "graph/dynamic_graph.h"
#include "storage/versioned_store.h"

namespace tornado {
namespace {

// --- A minimal max-propagation program. ---
// OnInput: EdgeDelta{src, dst, weight, insert} targets the vertex `src`;
// insert adds `dst` as a consumer (0 = none) and raises value to `weight`;
// deletion retires `dst`. OnUpdate takes the max. Scatter broadcasts.

struct TestState : VertexState {
  double value = 0.0;
  void Serialize(BufferWriter* writer) const override {
    writer->PutDouble(value);
  }
};

class TestProgram : public VertexProgram {
 public:
  std::unique_ptr<VertexState> CreateState(VertexId) const override {
    return std::make_unique<TestState>();
  }
  std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const override {
    auto state = std::make_unique<TestState>();
    EXPECT_TRUE(reader->GetDouble(&state->value).ok());
    return state;
  }
  bool OnInput(VertexContext& ctx, const Delta& delta) const override {
    const auto& e = std::get<EdgeDelta>(delta);
    if (e.dst != 0 && e.dst != ctx.id()) {
      if (e.insert) {
        ctx.AddTarget(e.dst);
      } else {
        ctx.RemoveTarget(e.dst);
      }
    }
    auto* state = static_cast<TestState*>(ctx.state());
    if (e.insert && e.weight > state->value) {
      state->value = e.weight;
      return true;
    }
    return false;
  }
  bool OnUpdate(VertexContext& ctx, VertexId, Iteration,
                const VertexUpdate& update) const override {
    auto* state = static_cast<TestState*>(ctx.state());
    if (update.values[0] > state->value) {
      state->value = update.values[0];
      return true;
    }
    return false;
  }
  void Scatter(VertexContext& ctx) const override {
    VertexUpdate update;
    update.kind = 1;
    update.values = {static_cast<const TestState*>(ctx.state())->value};
    ctx.EmitToTargets(update);
  }
};

struct ObservedCommit {
  LoopId loop;
  VertexId vertex;
  Iteration iteration;
};

// The max-propagation program as a BatchVertexProgram (with the default
// OnUpdateBatch replay) that logs every gathered update and charges a
// source-dependent cost for it, so both the gather order and the order in
// which costs accumulate are observable.
class LoggingBatchProgram : public BatchVertexProgram {
 public:
  struct Gathered {
    VertexId vertex;
    VertexId source;
    Iteration iteration;
    Iteration ctx_iteration;
    bool operator==(const Gathered&) const = default;
  };

  std::unique_ptr<VertexState> CreateState(VertexId id) const override {
    return inner_.CreateState(id);
  }
  std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const override {
    return inner_.DeserializeState(reader);
  }
  bool OnInput(VertexContext& ctx, const Delta& delta) const override {
    return inner_.OnInput(ctx, delta);
  }
  bool OnUpdate(VertexContext& ctx, VertexId source, Iteration iteration,
                const VertexUpdate& update) const override {
    gathered.push_back({ctx.id(), source, iteration, ctx.iteration()});
    ctx.AddCost(1e-3 * static_cast<double>(source));
    return inner_.OnUpdate(ctx, source, iteration, update);
  }
  void Scatter(VertexContext& ctx) const override { inner_.Scatter(ctx); }

  mutable std::vector<Gathered> gathered;

 private:
  TestProgram inner_;
};

class RecordingObserver : public EngineObserver {
 public:
  void OnInputGathered(LoopId, VertexId) override { ++inputs; }
  void OnPrepare(LoopId, LoopEpoch, VertexId, uint64_t fanout) override {
    prepares += fanout;
  }
  void OnAck(LoopId, LoopEpoch, VertexId, VertexId, Iteration) override {
    ++acks;
  }
  void OnCommit(LoopId loop, LoopEpoch, VertexId vertex, Iteration iteration,
                Iteration, Iteration) override {
    commits.push_back({loop, vertex, iteration});
  }
  void OnBlock(LoopId, LoopEpoch, VertexId, Iteration) override { ++blocks; }
  void OnUnblocked(LoopId, LoopEpoch, VertexId vertex,
                   Iteration iteration) override {
    unblocked.emplace_back(vertex, iteration);
  }
  void OnFlush(LoopId, uint64_t versions) override { flushed += versions; }

  uint64_t inputs = 0;
  uint64_t prepares = 0;
  uint64_t acks = 0;
  uint64_t blocks = 0;
  uint64_t flushed = 0;
  std::vector<ObservedCommit> commits;
  std::vector<std::pair<VertexId, Iteration>> unblocked;
};

class Harness {
 public:
  explicit Harness(uint64_t delay_bound = 8,
                   std::shared_ptr<VertexProgram> program = nullptr) {
    config_.program =
        program ? std::move(program) : std::make_shared<TestProgram>();
    config_.delay_bound = delay_bound;
    config_.num_processors = 1;
    sm_ = std::make_unique<ProtocolStateMachine>(
        /*index=*/0, &config_, &sessions_, HashPartitioner(1), &observer_);
  }

  EngineActions Dispatch(const Payload& msg) {
    EngineActions out;
    EXPECT_TRUE(sm_->Dispatch(msg, &out));
    return out;
  }

  /// Routes an input delta to vertex `target` on the main loop.
  EngineActions Input(VertexId target, EdgeDelta e) {
    InputMsg msg;
    msg.target = target;
    msg.delta = e;
    return Dispatch(msg);
  }

  EngineActions Terminate(Iteration upto, LoopId loop = kMainLoop,
                          LoopEpoch epoch = 0) {
    TerminatedMsg msg;
    msg.loop = loop;
    msg.epoch = epoch;
    msg.upto = upto;
    return Dispatch(msg);
  }

  /// Re-dispatches every engine-bound message in `actions` (this harness is
  /// a 1-partition cluster, so every vertex is local), collecting the next
  /// round of actions. Master-bound reports are dropped.
  EngineActions Pump(const EngineActions& actions) {
    EngineActions out;
    for (const auto& o : actions.messages) {
      if (o.to_master) continue;
      EXPECT_TRUE(sm_->Dispatch(*o.payload, &out));
    }
    return out;
  }

  /// Pumps until no vertex-bound messages remain.
  void PumpToQuiescence(EngineActions actions) {
    for (int round = 0; round < 100; ++round) {
      bool any = false;
      for (const auto& o : actions.messages) any |= !o.to_master;
      if (!any) return;
      actions = Pump(actions);
    }
    FAIL() << "protocol did not quiesce";
  }

  double ValueOf(LoopId loop, VertexId v) const {
    const LoopState* ls = sessions_.Get(loop);
    if (ls == nullptr) return -1.0;
    auto it = ls->vertices.find(v);
    if (it == ls->vertices.end()) return -1.0;
    return static_cast<const TestState*>(it->second.state.get())->value;
  }

  JobConfig config_;
  VersionedStore store_;
  SessionTable sessions_{&config_, &store_};
  RecordingObserver observer_;
  std::unique_ptr<ProtocolStateMachine> sm_;
};

template <typename T>
std::vector<const T*> MsgsOf(const EngineActions& actions) {
  std::vector<const T*> out;
  for (const auto& o : actions.messages) {
    if (const auto* m = dynamic_cast<const T*>(o.payload.get())) {
      out.push_back(m);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

TEST(VertexSessionTest, TargetMembershipAndRetirement) {
  VertexSession s;
  s.AddTarget(2);
  s.AddTarget(3);
  s.AddTarget(2);  // duplicate: ignored
  EXPECT_EQ(s.targets(), (std::vector<VertexId>{2, 3}));
  EXPECT_TRUE(s.HasTarget(2));

  s.RemoveTarget(2);
  EXPECT_EQ(s.targets(), (std::vector<VertexId>{3}));
  EXPECT_FALSE(s.HasTarget(2));
  EXPECT_TRUE(s.IsRetiring(2));
  s.RemoveTarget(99);  // absent: no-op
  EXPECT_EQ(s.retiring(), (std::vector<VertexId>{2}));

  s.AddTarget(2);  // re-adding cancels the retirement
  EXPECT_TRUE(s.HasTarget(2));
  EXPECT_FALSE(s.IsRetiring(2));
  EXPECT_TRUE(s.retiring().empty());

  s.RemoveTarget(3);
  s.ClearRetiring();
  EXPECT_TRUE(s.retiring().empty());
  EXPECT_EQ(s.targets(), (std::vector<VertexId>{2}));
}

TEST(ProtocolStateMachineTest, CommitWithoutConsumersSkipsPrepare) {
  Harness h;
  EngineActions out = h.Input(1, EdgeDelta{1, 0, 5.0, true});

  EXPECT_TRUE(MsgsOf<PrepareMsg>(out).empty());
  EXPECT_EQ(h.observer_.prepares, 0u);
  ASSERT_EQ(h.observer_.commits.size(), 1u);
  // Inputs gathered at tau = 0 belong to iteration 1.
  EXPECT_EQ(h.observer_.commits[0].iteration, 1u);
  EXPECT_EQ(h.store_.GetVersionIteration(kMainLoop, 1, kNoIteration - 1), 1u);
  EXPECT_GT(out.cost, 0.0);
}

TEST(ProtocolStateMachineTest, PrepareAckRoundtripPropagatesValue) {
  Harness h;
  EngineActions out = h.Input(1, EdgeDelta{1, 2, 7.0, true});

  auto prepares = MsgsOf<PrepareMsg>(out);
  ASSERT_EQ(prepares.size(), 1u);
  EXPECT_EQ(prepares[0]->src_vertex, 1u);
  EXPECT_EQ(prepares[0]->dst_vertex, 2u);
  EXPECT_TRUE(h.observer_.commits.empty());

  h.PumpToQuiescence(out);

  // v2 acked, v1 committed and scattered, v2 gathered and committed.
  EXPECT_EQ(h.observer_.acks, 1u);
  ASSERT_EQ(h.observer_.commits.size(), 2u);
  EXPECT_EQ(h.observer_.commits[0].vertex, 1u);
  EXPECT_EQ(h.observer_.commits[1].vertex, 2u);
  EXPECT_DOUBLE_EQ(h.ValueOf(kMainLoop, 2), 7.0);
}

TEST(ProtocolStateMachineTest, ConcurrentPreparesEarlierTimestampWins) {
  Harness h;
  // 1 and 2 prepare concurrently toward each other; v1 drew the earlier
  // Lamport time, so v2 acks immediately while v1 defers its ack.
  EngineActions a1 = h.Input(1, EdgeDelta{1, 2, 3.0, true});
  EngineActions a2 = h.Input(2, EdgeDelta{2, 1, 4.0, true});
  auto p1 = MsgsOf<PrepareMsg>(a1);
  auto p2 = MsgsOf<PrepareMsg>(a2);
  ASSERT_EQ(p1.size(), 1u);
  ASSERT_EQ(p2.size(), 1u);
  ASSERT_TRUE(p1[0]->time < p2[0]->time);

  // v2 (preparing at a later time) receives v1's earlier PREPARE: immediate
  // ack. v1 receives v2's later PREPARE: ack deferred until v1 commits.
  EngineActions r1 = h.Dispatch(*p2[0]);
  EXPECT_TRUE(MsgsOf<AckMsg>(r1).empty());
  EngineActions r2 = h.Dispatch(*p1[0]);
  ASSERT_EQ(MsgsOf<AckMsg>(r2).size(), 1u);
  EXPECT_TRUE(h.observer_.commits.empty());

  // Releasing the ack lets v1 commit first; its commit releases the
  // deferred ack, after which v2 commits with the propagated maximum.
  h.PumpToQuiescence(r2);
  ASSERT_GE(h.observer_.commits.size(), 2u);
  EXPECT_EQ(h.observer_.commits[0].vertex, 1u);
  EXPECT_DOUBLE_EQ(h.ValueOf(kMainLoop, 1), 4.0);
  EXPECT_DOUBLE_EQ(h.ValueOf(kMainLoop, 2), 4.0);
}

TEST(ProtocolStateMachineTest, DuplicatePreparesAreIdempotent) {
  Harness h;
  PrepareMsg prep;
  prep.loop = kMainLoop;
  prep.epoch = 0;
  prep.src_vertex = 7;
  prep.dst_vertex = 1;
  prep.time = LamportTime{3, 9};

  EngineActions r1 = h.Dispatch(prep);
  EngineActions r2 = h.Dispatch(prep);
  // Each delivery is acknowledged (at-least-once transport), but the
  // prepare list holds the producer only once.
  EXPECT_EQ(MsgsOf<AckMsg>(r1).size(), 1u);
  EXPECT_EQ(MsgsOf<AckMsg>(r2).size(), 1u);
  const LoopState* ls = h.sessions_.Get(kMainLoop);
  ASSERT_NE(ls, nullptr);
  EXPECT_EQ(ls->vertices.at(1).prepare_list.size(), 1u);

  // The producer's commit notification drains the list exactly once.
  UpdateMsg upd;
  upd.loop = kMainLoop;
  upd.src_vertex = 7;
  upd.dst_vertex = 1;
  upd.iteration = 0;
  upd.update.kind = kNoopUpdateKind;
  h.Dispatch(upd);
  EXPECT_TRUE(ls->vertices.at(1).prepare_list.empty());
}

TEST(ProtocolStateMachineTest, UpdatesBelowMergeFloorAreDiscarded) {
  Harness h;
  const Iteration merge_at = 8;

  // Materialize a merged version of v2 at the merge iteration, as the
  // master's MergeLoop would, then have the processor adopt it.
  BufferWriter writer;
  TestState merged;
  merged.value = 50.0;
  merged.Serialize(&writer);
  writer.PutU64Vec({});
  h.store_.Put(kMainLoop, 2, merge_at, writer.Release());

  AdoptMergeMsg adopt;
  adopt.loop = kMainLoop;
  adopt.epoch = 0;
  adopt.merge_iteration = merge_at;
  h.Dispatch(adopt);
  EXPECT_DOUBLE_EQ(h.ValueOf(kMainLoop, 2), 50.0);

  // An in-transit pre-merge update (iteration < merge floor) must not be
  // gathered: the merged version supersedes it.
  UpdateMsg stale;
  stale.loop = kMainLoop;
  stale.src_vertex = 1;
  stale.dst_vertex = 2;
  stale.iteration = 3;
  stale.update.kind = 1;
  stale.update.values = {99.0};
  h.Dispatch(stale);

  EXPECT_DOUBLE_EQ(h.ValueOf(kMainLoop, 2), 50.0);
  EXPECT_TRUE(h.observer_.commits.empty());
  const LoopState* ls = h.sessions_.Get(kMainLoop);
  EXPECT_EQ(ls->buckets.at(3).gathered, 1u);  // received, then dropped
}

TEST(ProtocolStateMachineTest, OrphanedTrafficReplaysWhenLoopForks) {
  Harness h;
  const LoopId branch = 5;

  // Traffic for a branch the fork broadcast has not reached yet.
  UpdateMsg early;
  early.loop = branch;
  early.epoch = 0;
  early.src_vertex = 1;
  early.dst_vertex = 2;
  early.iteration = 0;
  early.update.kind = 1;
  early.update.values = {11.0};
  EngineActions parked = h.Dispatch(early);
  EXPECT_TRUE(parked.messages.empty());
  EXPECT_EQ(h.sessions_.Get(branch), nullptr);

  ForkBranchMsg fork;
  fork.branch = branch;
  fork.parent = kMainLoop;
  fork.epoch = 0;
  fork.snapshot_iteration = 0;
  EngineActions out = h.Dispatch(fork);

  // The parked update was replayed into the new loop: v2 gathered it,
  // committed, and the fork reported the branch to the master.
  ASSERT_EQ(h.observer_.commits.size(), 1u);
  EXPECT_EQ(h.observer_.commits[0].loop, branch);
  EXPECT_DOUBLE_EQ(h.ValueOf(branch, 2), 11.0);
  auto reports = MsgsOf<ProgressMsg>(out);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0]->loop, branch);
}

TEST(ProtocolStateMachineTest, OrphanReplayAndStaleDiscardAcrossRestart) {
  Harness h;
  h.Input(1, EdgeDelta{1, 0, 5.0, true});  // materializes main loop, epoch 0

  // A message already stamped with the post-restart epoch parks.
  UpdateMsg future;
  future.loop = kMainLoop;
  future.epoch = 1;
  future.src_vertex = 9;
  future.dst_vertex = 3;
  future.iteration = 1;
  future.update.kind = 1;
  future.update.values = {21.0};
  EXPECT_TRUE(h.Dispatch(future).messages.empty());

  RestartLoopMsg restart;
  restart.loop = kMainLoop;
  restart.new_epoch = 1;
  restart.from_iteration = kNoIteration;  // from scratch
  h.Dispatch(restart);

  // The parked epoch-1 update replayed into the restarted loop.
  EXPECT_DOUBLE_EQ(h.ValueOf(kMainLoop, 3), 21.0);

  // Stale epoch-0 traffic from before the rollback is discarded.
  const size_t commits_before = h.observer_.commits.size();
  UpdateMsg stale;
  stale.loop = kMainLoop;
  stale.epoch = 0;
  stale.src_vertex = 1;
  stale.dst_vertex = 4;
  stale.iteration = 0;
  stale.update.kind = 1;
  stale.update.values = {33.0};
  EXPECT_TRUE(h.Dispatch(stale).messages.empty());
  EXPECT_EQ(h.observer_.commits.size(), commits_before);
  EXPECT_EQ(h.sessions_.Get(kMainLoop)->vertices.count(4), 0u);
}

TEST(ProtocolStateMachineTest, SynchronousPolicyRunsLockStepWithoutPrepares) {
  Harness h(/*delay_bound=*/1);

  // With delta = 1 the input's iteration-1 work exceeds the horizon (tau =
  // 0, bound = 0): the vertex stalls until iteration 0 terminates.
  EngineActions out = h.Input(1, EdgeDelta{1, 2, 5.0, true});
  EXPECT_TRUE(out.messages.empty());
  EXPECT_TRUE(h.observer_.commits.empty());
  EXPECT_EQ(h.sessions_.Get(kMainLoop)->stalled.count(1), 1u);

  // Terminating iteration 0 releases the stall; the commit lands exactly
  // at the bound, so no PREPARE round is needed (Table 2's synchronous
  // row: zero prepares).
  EngineActions t0 = h.Terminate(0);
  ASSERT_EQ(h.observer_.commits.size(), 1u);
  EXPECT_EQ(h.observer_.commits[0].iteration, 1u);
  EXPECT_EQ(h.observer_.prepares, 0u);

  // The scattered update is itself at the bound: it buffers until its
  // iteration terminates, then gathers and commits — still prepare-free.
  auto updates = MsgsOf<UpdateMsg>(t0);
  ASSERT_EQ(updates.size(), 1u);
  h.Dispatch(*updates[0]);
  EXPECT_EQ(h.observer_.blocks, 1u);
  EngineActions t1 = h.Terminate(1);
  ASSERT_EQ(h.observer_.commits.size(), 2u);
  EXPECT_EQ(h.observer_.commits[1].vertex, 2u);
  EXPECT_EQ(h.observer_.prepares, 0u);
  EXPECT_DOUBLE_EQ(h.ValueOf(kMainLoop, 2), 5.0);
}

// Updates buffered at the delay bound are gathered, once released, exactly
// as if they had arrived live: one update at a time, in arrival order, with
// the prepare check after each. The program derives from
// BatchVertexProgram, so this holds whether or not a program offers a
// batch entry point.
TEST(ProtocolStateMachineTest, ReleasedBlockedUpdatesGatherLikeLiveOnes) {
  auto program = std::make_shared<LoggingBatchProgram>();
  Harness h(/*delay_bound=*/3, program);

  // v10 gets consumer v11 and commits once (iteration 1); v11 follows.
  h.PumpToQuiescence(h.Input(10, EdgeDelta{10, 11, 1.0, true}));
  ASSERT_EQ(h.observer_.commits.size(), 2u);
  program->gathered.clear();

  // tau = 0, B = 3: iteration-2 updates sit at the bound and are buffered.
  // Producer 3's is a commit notification without a value.
  auto update_from = [&](VertexId src, double value) {
    UpdateMsg upd;
    upd.loop = kMainLoop;
    upd.src_vertex = src;
    upd.dst_vertex = 10;
    upd.iteration = 2;
    if (value < 0) {
      upd.update.kind = kNoopUpdateKind;
    } else {
      upd.update.kind = 1;
      upd.update.values = {value};
    }
    EXPECT_TRUE(h.Dispatch(upd).messages.empty());
  };
  update_from(2, 4.0);
  update_from(3, -1.0);
  update_from(4, 6.0);
  update_from(5, 5.0);
  EXPECT_EQ(h.observer_.blocks, 4u);
  EXPECT_TRUE(program->gathered.empty());

  // Terminating iterations 0 and 1 (tau = 2, horizon 4) releases them. The
  // first value dirties v10, which prepares toward v11 at iteration 3; the
  // rest are gathered while that prepare is outstanding.
  EngineActions out = h.Terminate(1);
  EXPECT_EQ(h.observer_.unblocked,
            (std::vector<std::pair<VertexId, Iteration>>{
                {10, 2}, {10, 2}, {10, 2}, {10, 2}}));
  using G = LoggingBatchProgram::Gathered;
  EXPECT_EQ(program->gathered,
            (std::vector<G>{{10, 2, 2, 3}, {10, 4, 2, 3}, {10, 5, 2, 3}}));
  ASSERT_EQ(out.messages.size(), 1u);
  auto prepares = MsgsOf<PrepareMsg>(out);
  ASSERT_EQ(prepares.size(), 1u);
  EXPECT_EQ(prepares[0]->src_vertex, 10u);
  EXPECT_EQ(prepares[0]->dst_vertex, 11u);
  const double per_update =
      h.config_.cost.per_update_cpu + program->GatherCost();
  double cost = 0.0;
  for (VertexId source : {2, 4, 5}) {
    cost += 1e-3 * static_cast<double>(source);
    cost += per_update;
  }
  EXPECT_EQ(out.cost, cost);
  EXPECT_EQ(h.sessions_.Get(kMainLoop)->blocked_count, 0u);

  // v11's ack lets v10 commit the maximum it gathered (6.0).
  EngineActions ack = h.Pump(out);
  ASSERT_EQ(MsgsOf<AckMsg>(ack).size(), 1u);
  EngineActions commit = h.Pump(ack);
  ASSERT_EQ(h.observer_.commits.size(), 3u);
  EXPECT_EQ(h.observer_.commits[2].vertex, 10u);
  EXPECT_EQ(h.observer_.commits[2].iteration, 3u);
  auto updates = MsgsOf<UpdateMsg>(commit);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0]->dst_vertex, 11u);
  EXPECT_EQ(updates[0]->iteration, 3u);
  ASSERT_EQ(updates[0]->update.values.size(), 1u);
  EXPECT_EQ(updates[0]->update.values[0], 6.0);
}

TEST(ProtocolStateMachineTest, BuildReportFlushesDirtyVersions) {
  Harness h;
  h.Input(1, EdgeDelta{1, 0, 5.0, true});
  EXPECT_GT(h.store_.DirtyVersions(kMainLoop), 0u);

  LoopState* ls = h.sessions_.Get(kMainLoop);
  ASSERT_NE(ls, nullptr);
  EngineActions out;
  auto report = h.sm_->BuildReport(*ls, &out);

  EXPECT_EQ(h.observer_.flushed, 1u);
  EXPECT_EQ(h.store_.DirtyVersions(kMainLoop), 0u);
  ASSERT_EQ(out.messages.size(), 1u);
  EXPECT_TRUE(out.messages[0].to_master);
  EXPECT_EQ(report->loop, kMainLoop);
  EXPECT_EQ(report->inputs_gathered, 1u);
  EXPECT_EQ(report->report_seq, 1u);
  EXPECT_EQ(report->buckets.at(1).committed, 1u);

  // A second report without new commits does not flush again.
  EngineActions out2;
  auto report2 = h.sm_->BuildReport(*ls, &out2);
  EXPECT_EQ(h.observer_.flushed, 1u);
  EXPECT_EQ(report2->report_seq, 2u);
}

}  // namespace
}  // namespace tornado
