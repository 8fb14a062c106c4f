#include "engine/protocol.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/ordered.h"
#include "core/vertex_program.h"

namespace tornado {

namespace {

/// The context handed to program callbacks. Emissions and graph mutations
/// are buffered and applied by the engine after the callback returns, so
/// a misbehaving program cannot corrupt protocol state. Extra CPU cost is
/// accumulated into the dispatch's action record.
class EngineContext : public VertexContext {
 public:
  enum class Mode { kInput, kUpdate, kScatter };

  EngineContext(Mode mode, LoopId loop, Iteration iteration,
                VertexSession* session, double* cost_sink)
      : mode_(mode),
        loop_(loop),
        iteration_(iteration),
        session_(session),
        cost_sink_(cost_sink) {}

  VertexId id() const override { return session_->id; }
  LoopId loop() const override { return loop_; }
  bool is_main_loop() const override { return loop_ == kMainLoop; }
  Iteration iteration() const override { return iteration_; }
  VertexState* state() override { return session_->state.get(); }

  void AddTarget(VertexId target) override {
    TCHECK(mode_ == Mode::kInput)
        << "AddTarget is only legal while gathering an input";
    TCHECK_NE(target, session_->id) << "self-dependencies are not supported";
    session_->AddTarget(target);
  }

  void RemoveTarget(VertexId target) override {
    TCHECK(mode_ == Mode::kInput)
        << "RemoveTarget is only legal while gathering an input";
    session_->RemoveTarget(target);
  }

  const std::vector<VertexId>& targets() const override {
    return session_->targets();
  }
  const std::vector<VertexId>& retiring_targets() const override {
    return session_->retiring();
  }

  void EmitToTargets(const VertexUpdate& update) override {
    TCHECK(mode_ == Mode::kScatter) << "emissions are only legal in Scatter";
    for (VertexId t : session_->targets()) emissions.emplace_back(t, update);
  }

  void EmitTo(VertexId target, const VertexUpdate& update) override {
    TCHECK(mode_ == Mode::kScatter) << "emissions are only legal in Scatter";
    emissions.emplace_back(target, update);
  }

  void AddCost(double seconds) override { *cost_sink_ += seconds; }

  void AddProgress(double delta) override { progress += delta; }

  Rng* rng() override { return &session_->rng; }

  std::vector<std::pair<VertexId, VertexUpdate>> emissions;
  double progress = 0.0;

 private:
  Mode mode_;
  LoopId loop_;
  Iteration iteration_;
  VertexSession* session_;
  double* cost_sink_;
};

EngineObserver* NullObserver() {
  static EngineObserver noop;
  return &noop;
}

/// Keeps `ls.active` equal to the sessions that are dirty or preparing.
/// Called after every change to either flag.
void SyncActive(LoopState& ls, VertexSession& s) {
  const bool active = s.dirty || s.update_time.has_value();
  if (active == (s.active_slot != 0)) return;
  if (active) {
    ls.active.push_back(&s);
    s.active_slot = static_cast<uint32_t>(ls.active.size());
  } else {
    // Swap-remove: the last listed session takes this one's slot.
    VertexSession* last = ls.active.back();
    ls.active[s.active_slot - 1] = last;
    last->active_slot = s.active_slot;
    ls.active.pop_back();
    s.active_slot = 0;
  }
}

}  // namespace

ProtocolStateMachine::ProtocolStateMachine(uint32_t index,
                                           const JobConfig* config,
                                           SessionTable* sessions,
                                           HashPartitioner partitioner,
                                           EngineObserver* observer)
    : index_(index),
      config_(config),
      sessions_(sessions),
      policy_(config->delay_bound),
      partitioner_(partitioner),
      observer_(observer != nullptr ? observer : NullObserver()),
      clock_(index + 1) {}

void ProtocolStateMachine::SendToVertex(EngineActions* out, VertexId dst,
                                        PayloadPtr msg) {
  EngineActions::Outbound o;
  o.dst_vertex = dst;
  o.payload = std::move(msg);
  out->messages.push_back(std::move(o));
}

void ProtocolStateMachine::SendToMaster(EngineActions* out, PayloadPtr msg) {
  EngineActions::Outbound o;
  o.to_master = true;
  o.payload = std::move(msg);
  out->messages.push_back(std::move(o));
}

bool ProtocolStateMachine::Dispatch(const Payload& msg, EngineActions* out) {
  if (const auto* m = dynamic_cast<const UpdateMsg*>(&msg)) {
    HandleUpdate(*m, out);
  } else if (const auto* m = dynamic_cast<const PrepareMsg*>(&msg)) {
    HandlePrepare(*m, out);
  } else if (const auto* m = dynamic_cast<const AckMsg*>(&msg)) {
    HandleAck(*m, out);
  } else if (const auto* m = dynamic_cast<const InputMsg*>(&msg)) {
    HandleInput(*m, out);
  } else if (const auto* m = dynamic_cast<const TerminatedMsg*>(&msg)) {
    HandleTerminated(*m, out);
  } else if (const auto* m = dynamic_cast<const ForkBranchMsg*>(&msg)) {
    HandleForkBranch(*m, out);
  } else if (const auto* m = dynamic_cast<const RestartLoopMsg*>(&msg)) {
    HandleRestartLoop(*m, out);
  } else if (const auto* m = dynamic_cast<const StopLoopMsg*>(&msg)) {
    HandleStopLoop(*m);
  } else if (const auto* m = dynamic_cast<const AdoptMergeMsg*>(&msg)) {
    HandleAdoptMerge(*m);
  } else {
    return false;
  }
  return true;
}

void ProtocolStateMachine::EnsureMainLoop() {
  if (!sessions_->Has(kMainLoop)) CreateLoop(kMainLoop, 0, 0);
}

LoopState& ProtocolStateMachine::CreateLoop(LoopId loop, LoopEpoch epoch,
                                            Iteration tau) {
  LoopState& ls = sessions_->Create(loop, epoch, tau);
  observer_->OnLoopCreated(loop, epoch, tau, index_);
  return ls;
}

void ProtocolStateMachine::Reset() {
  // The Lamport clock deliberately survives: real clocks do not rewind on
  // process restart, and monotonicity keeps the ack order acyclic.
  sessions_->Clear();
  orphans_.clear();
  observer_->OnEngineReset(index_);
}

void ProtocolStateMachine::DumpState() const {
  // Sorted walk: dump output must be deterministic run-to-run (DET-003).
  ForEachOrdered(sessions_->loops(), [&](LoopId loop, const LoopState& ls) {
    TLOG_INFO << "proc " << index_ << " loop " << loop << " epoch "
              << ls.epoch << " tau=" << ls.tau
              << " vertices=" << ls.vertices.size()
              << " blocked=" << ls.blocked_count
              << " stalled=" << ls.stalled.size();
    ForEachOrdered(ls.vertices, [&](VertexId v, const VertexSession& s) {
      if (!s.dirty && !s.update_time.has_value() && s.prepare_list.empty() &&
          s.pending_inputs.empty()) {
        return;
      }
      std::string plist, wlist;
      for (VertexId p : s.prepare_list) plist += std::to_string(p) + ",";
      for (VertexId w : s.waiting_list) wlist += std::to_string(w) + ",";
      TLOG_INFO << "  v" << v << " iter=" << s.iter << " last_commit="
                << static_cast<int64_t>(s.last_commit) << " dirty=" << s.dirty
                << " preparing=" << s.update_time.has_value()
                << " prepare_list=[" << plist << "] waiting=[" << wlist
                << "] pending_inputs=" << s.pending_inputs.size()
                << " pending_acks=" << s.pending_list.size();
    });
    for (const auto& [iter, c] : ls.buckets) {
      TLOG_INFO << "  bucket " << iter << " committed=" << c.committed
                << " sent=" << c.sent << " owned=" << c.owned
                << " gathered=" << c.gathered;
    }
  });
}

// ---------------------------------------------------------------------------
// Loop / vertex bookkeeping
// ---------------------------------------------------------------------------

void ProtocolStateMachine::MaybeOrphan(LoopId loop, LoopEpoch epoch,
                                       PayloadPtr msg) {
  // Park only messages from the future (loop unknown, or a newer epoch than
  // ours); stale-epoch traffic is discarded, as Section 5.3 requires.
  const LoopState* ls = sessions_->Get(loop);
  if (ls != nullptr && ls->epoch >= epoch) return;
  orphans_[{loop, epoch}].push_back(std::move(msg));
}

void ProtocolStateMachine::ReplayOrphans(LoopId loop, LoopEpoch epoch,
                                         EngineActions* out) {
  // Drop parked traffic for superseded epochs of this loop.
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    if (it->first.first == loop && it->first.second < epoch) {
      it = orphans_.erase(it);
    } else {
      ++it;
    }
  }
  auto it = orphans_.find({loop, epoch});
  if (it == orphans_.end()) return;
  std::vector<PayloadPtr> batch = std::move(it->second);
  orphans_.erase(it);
  for (const PayloadPtr& msg : batch) Dispatch(*msg, out);
}

LoopState* ProtocolStateMachine::ResolveLoop(LoopId loop, LoopEpoch epoch) {
  LoopState* ls = sessions_->Get(loop);
  if (ls == nullptr) {
    if (loop == kMainLoop && epoch == 0) {
      // The main loop materializes lazily when the first input arrives.
      return &CreateLoop(kMainLoop, 0, 0);
    }
    return nullptr;
  }
  if (ls->epoch != epoch) return nullptr;  // stale incarnation
  return ls;
}

VertexSession& ProtocolStateMachine::GetOrCreateVertex(LoopState& ls,
                                                       VertexId id) {
  return sessions_->GetOrCreate(ls, id, BoundIteration(ls));
}

void ProtocolStateMachine::PersistVertex(LoopState& ls, VertexSession& s,
                                         Iteration iteration,
                                         EngineActions* out) {
  sessions_->Persist(ls, s, iteration);
  out->cost += config_->cost.store_write_cost;
}

Iteration ProtocolStateMachine::MinCommitIteration(
    const LoopState& ls, const VertexSession& s) const {
  Iteration mc = std::max(s.iter, ls.tau);
  if (s.last_commit != kNoIteration && s.last_commit + 1 > mc) {
    mc = s.last_commit + 1;
  }
  return mc;
}

// ---------------------------------------------------------------------------
// Protocol: gathering
// ---------------------------------------------------------------------------

void ProtocolStateMachine::HandleInput(const InputMsg& msg,
                                       EngineActions* out) {
  LoopState* ls = ResolveLoop(msg.loop, msg.epoch);
  if (ls == nullptr) {
    MaybeOrphan(msg.loop, msg.epoch, std::make_shared<InputMsg>(msg));
    return;
  }
  VertexSession& s = GetOrCreateVertex(*ls, msg.target);
  if (s.update_time.has_value()) {
    // Inputs may mutate the consumer set, so they are not gathered while
    // the vertex prepares its update (Section 4.2, OnReceiveAcknowledge).
    s.pending_inputs.push_back(msg.delta);
    return;
  }
  GatherInput(*ls, s, msg.delta, out);
  MaybePrepare(*ls, s, out);
}

void ProtocolStateMachine::GatherInput(LoopState& ls, VertexSession& s,
                                       const Delta& delta,
                                       EngineActions* out) {
  TCHECK(!s.update_time.has_value());
  ++ls.inputs_gathered;
  observer_->OnInputGathered(ls.loop, s.id);
  // Inputs gathered while iteration tau is closing belong to the *next*
  // iteration (Section 3.3: ΔS_i are "the inputs collected in the i-th
  // iteration", consumed by update i+1). Without this, a continuous input
  // stream would keep adding work to tau and no iteration of the main
  // loop could ever terminate.
  if (s.iter < ls.tau + 1) s.iter = ls.tau + 1;
  s.input_changed = true;  // OnInput may change the state's input part
  EngineContext ctx(EngineContext::Mode::kInput, ls.loop, s.iter, &s,
                    &out->cost);
  const bool changed = config_->program->OnInput(ctx, delta);
  out->cost += config_->cost.per_update_cpu + config_->program->GatherCost();
  if (changed || !s.retiring().empty()) {
    s.dirty = true;
    SyncActive(ls, s);
  }
}

void ProtocolStateMachine::HandleUpdate(const UpdateMsg& msg,
                                        EngineActions* out) {
  LoopState* ls = ResolveLoop(msg.loop, msg.epoch);
  if (ls == nullptr) {
    MaybeOrphan(msg.loop, msg.epoch, std::make_shared<UpdateMsg>(msg));
    return;
  }
  ls->buckets[msg.iteration].owned++;
  VertexSession& s = GetOrCreateVertex(*ls, msg.dst_vertex);
  if (policy_.ShouldBlock(msg.iteration, ls->tau)) {
    // Delay-bound enforcement (Section 4.4): updates of iteration
    // tau + B - 1 are gathered only once iteration tau terminates.
    ls->blocked[msg.iteration].push_back(
        BlockedUpdate{msg.src_vertex, msg.dst_vertex, msg.iteration,
                      msg.update});
    ++ls->blocked_count;
    observer_->OnBlock(ls->loop, ls->epoch, msg.dst_vertex, msg.iteration);
    // The producer has committed even though the value cannot be gathered
    // yet; the consumer is no longer involved in its preparation and may
    // schedule its own (earlier-iteration) update.
    s.prepare_list.erase(msg.src_vertex);
    MaybePrepare(*ls, s, out);
    return;
  }
  GatherUpdate(*ls, s, msg.src_vertex, msg.iteration, msg.update, out);
}

void ProtocolStateMachine::GatherUpdate(LoopState& ls, VertexSession& s,
                                        VertexId source, Iteration iteration,
                                        const VertexUpdate& update,
                                        EngineActions* out) {
  ls.buckets[iteration].gathered++;
  // The producer has committed: the consumer is no longer involved in its
  // preparation.
  s.prepare_list.erase(source);

  if (update.kind == kNoopUpdateKind) {
    // Commit notification without a value change: observe the iteration,
    // release the producer, but do not re-dirty the vertex.
    s.iter = std::max({s.iter, iteration + 1, ls.tau});
    MaybePrepare(ls, s, out);
    return;
  }

  if (iteration < s.merge_floor) {
    // In-transit update from before a branch merge was adopted; the merged
    // version at tau + B supersedes it (Section 5.2).
    MaybePrepare(ls, s, out);
    return;
  }

  s.iter = std::max({s.iter, iteration + 1, ls.tau});
  EngineContext ctx(EngineContext::Mode::kUpdate, ls.loop, s.iter, &s,
                    &out->cost);
  if (config_->program->OnUpdate(ctx, source, iteration, update)) {
    s.dirty = true;
    SyncActive(ls, s);
  }
  out->cost += config_->cost.per_update_cpu + config_->program->GatherCost();
  MaybePrepare(ls, s, out);
}

// ---------------------------------------------------------------------------
// Protocol: prepare phase
// ---------------------------------------------------------------------------

void ProtocolStateMachine::MaybePrepare(LoopState& ls, VertexSession& s,
                                        EngineActions* out) {
  if (!s.dirty || s.update_time.has_value() || !s.prepare_list.empty()) {
    return;
  }
  const Iteration mc = MinCommitIteration(ls, s);
  const Iteration bound = BoundIteration(ls);
  if (mc > bound) {
    // The vertex already committed at the bound; it must wait for tau to
    // advance before it may be scheduled again.
    ls.stalled.insert(s.id);
    return;
  }
  ls.stalled.erase(s.id);

  std::vector<VertexId> consumers = s.targets();
  consumers.insert(consumers.end(), s.retiring().begin(), s.retiring().end());

  if (consumers.empty()) {
    Commit(ls, s, mc, out);
    return;
  }
  if (mc == bound) {
    // Section 4.4: a component updated in iteration tau + B - 1 commits
    // without PREPARE messages — no consumer can report a later iteration.
    Commit(ls, s, bound, out);
    return;
  }

  s.update_time = clock_.Tick();
  s.prepare_cause = NextCause();  // one trace round per prepare fanout
  for (VertexId c : consumers) s.waiting_list.insert(c);
  for (VertexId c : consumers) {
    auto prep = std::make_shared<PrepareMsg>();
    prep->cause_id = s.prepare_cause;
    prep->loop = ls.loop;
    prep->epoch = ls.epoch;
    prep->src_vertex = s.id;
    prep->dst_vertex = c;
    prep->time = *s.update_time;
    SendToVertex(out, c, std::move(prep));
  }
  ls.prepares_sent += consumers.size();
  observer_->OnPrepare(ls.loop, ls.epoch, s.id, consumers.size());
}

void ProtocolStateMachine::HandlePrepare(const PrepareMsg& msg,
                                         EngineActions* out) {
  LoopState* ls = ResolveLoop(msg.loop, msg.epoch);
  if (ls == nullptr) {
    MaybeOrphan(msg.loop, msg.epoch, std::make_shared<PrepareMsg>(msg));
    return;
  }
  VertexSession& s = GetOrCreateVertex(*ls, msg.dst_vertex);
  clock_.Witness(msg.time);
  s.prepare_list.insert(msg.src_vertex);
  ls->stalled.erase(s.id);  // can no longer self-prepare until released

  // Acknowledge unless we are preparing an update that happens-before the
  // producer's (the Lamport order makes acknowledgements acyclic, so the
  // minimum-time preparer always makes progress). Vertices carried past
  // the bound by a branch merge (iter = tau + B) report the bound instead:
  // in-window producers keep committing in-window and the merge floor
  // discards their in-transit updates (Section 5.2).
  if (!s.update_time.has_value() || *s.update_time > msg.time) {
    auto ack = std::make_shared<AckMsg>();
    ack->cause_id = msg.cause_id;  // echo the prepare's trace round
    ack->loop = ls->loop;
    ack->epoch = ls->epoch;
    ack->src_vertex = s.id;
    ack->dst_vertex = msg.src_vertex;
    const Iteration acked = std::min(s.iter, BoundIteration(*ls));
    ack->iteration = acked;
    SendToVertex(out, msg.src_vertex, std::move(ack));
    observer_->OnAck(ls->loop, ls->epoch, s.id, msg.src_vertex, acked);
  } else {
    s.pending_list.push_back(DeferredAck{msg.src_vertex, msg.time,
                                         msg.cause_id});
  }
}

void ProtocolStateMachine::HandleAck(const AckMsg& msg, EngineActions* out) {
  LoopState* ls = ResolveLoop(msg.loop, msg.epoch);
  if (ls == nullptr) {
    MaybeOrphan(msg.loop, msg.epoch, std::make_shared<AckMsg>(msg));
    return;
  }
  auto it = ls->vertices.find(msg.dst_vertex);
  if (it == ls->vertices.end()) return;
  VertexSession& s = it->second;
  if (!s.update_time.has_value()) return;  // stale ack
  s.iter = std::max(s.iter, msg.iteration);
  s.waiting_list.erase(msg.src_vertex);
  if (s.waiting_list.empty()) {
    // Acks are capped at the bound, but tau can regress relative to a
    // just-received notification ordering; clamp defensively.
    const Iteration c =
        std::min(MinCommitIteration(*ls, s), BoundIteration(*ls));
    Commit(*ls, s, c, out);
  }
}

// ---------------------------------------------------------------------------
// Protocol: commit phase
// ---------------------------------------------------------------------------

void ProtocolStateMachine::Commit(LoopState& ls, VertexSession& s,
                                  Iteration iteration, EngineActions* out) {
  // Trace round this commit belongs to: the prepare fanout that enabled it
  // when one ran, or a fresh id for prepare-free commits (no consumers, or
  // a commit at the bound). The update scatter below carries it.
  const uint64_t round =
      s.prepare_cause != 0 ? s.prepare_cause : NextCause();
  s.prepare_cause = 0;
  s.update_time.reset();
  s.dirty = false;
  SyncActive(ls, s);
  s.last_commit = iteration;
  s.iter = iteration;

  EngineContext ctx(EngineContext::Mode::kScatter, ls.loop, iteration, &s,
                    &out->cost);
  config_->program->Scatter(ctx);
  out->cost += config_->cost.per_update_cpu + config_->program->ScatterCost();

  std::set<VertexId> notified;
  for (auto& [target, update] : ctx.emissions) {
    TCHECK_NE(update.kind, kNoopUpdateKind)
        << "programs must not emit the reserved no-op kind";
    auto upd = std::make_shared<UpdateMsg>();
    upd->cause_id = round;
    upd->loop = ls.loop;
    upd->epoch = ls.epoch;
    upd->src_vertex = s.id;
    upd->dst_vertex = target;
    upd->iteration = iteration;
    upd->update = std::move(update);
    SendToVertex(out, target, std::move(upd));
    ls.buckets[iteration].sent++;
    notified.insert(target);
  }
  // Every consumer observes the commit (Rule 1 of Section 4.1): fill in
  // no-op notifications for targets the program did not emit to, so their
  // PrepareLists drain and the protocol stays live.
  auto notify_noop = [&](VertexId target) {
    if (notified.count(target) > 0) return;
    auto upd = std::make_shared<UpdateMsg>();
    upd->cause_id = round;
    upd->loop = ls.loop;
    upd->epoch = ls.epoch;
    upd->src_vertex = s.id;
    upd->dst_vertex = target;
    upd->iteration = iteration;
    upd->update.kind = kNoopUpdateKind;
    SendToVertex(out, target, std::move(upd));
    ls.buckets[iteration].sent++;
  };
  for (VertexId target : s.targets()) notify_noop(target);
  for (VertexId target : s.retiring()) notify_noop(target);

  ls.buckets[iteration].committed++;
  ls.buckets[iteration].progress += ctx.progress;
  ls.progress[iteration] += ctx.progress;

  PersistVertex(ls, s, iteration, out);
  // Fired after the persist so checkers can cross-examine the store.
  observer_->OnCommit(ls.loop, ls.epoch, s.id, iteration, ls.tau,
                      BoundIteration(ls));

  // Reply to producers whose PREPAREs were deferred behind this update.
  for (const DeferredAck& deferred : s.pending_list) {
    auto ack = std::make_shared<AckMsg>();
    ack->cause_id = deferred.cause;  // echo the deferred prepare's round
    ack->loop = ls.loop;
    ack->epoch = ls.epoch;
    ack->src_vertex = s.id;
    ack->dst_vertex = deferred.producer;
    ack->iteration = s.iter;
    SendToVertex(out, deferred.producer, std::move(ack));
    observer_->OnAck(ls.loop, ls.epoch, s.id, deferred.producer, s.iter);
  }
  s.pending_list.clear();
  s.ClearRetiring();

  // Inputs that arrived during the preparation are gathered now.
  while (!s.pending_inputs.empty()) {
    Delta delta = std::move(s.pending_inputs.front());
    s.pending_inputs.pop_front();
    GatherInput(ls, s, delta, out);
  }
  MaybePrepare(ls, s, out);
}

// ---------------------------------------------------------------------------
// Termination notifications, delay-bound release
// ---------------------------------------------------------------------------

void ProtocolStateMachine::HandleTerminated(const TerminatedMsg& msg,
                                            EngineActions* out) {
  LoopState* ls = ResolveLoop(msg.loop, msg.epoch);
  if (ls == nullptr) {
    MaybeOrphan(msg.loop, msg.epoch, std::make_shared<TerminatedMsg>(msg));
    return;
  }
  if (msg.upto + 1 <= ls->tau) return;  // duplicate notification
  ls->tau = msg.upto + 1;
  observer_->OnTerminated(ls->loop, ls->epoch, index_, ls->tau);

  // Old buckets can no longer change; drop them to keep reports small.
  for (auto it = ls->buckets.begin(); it != ls->buckets.end();) {
    if (it->first + 1 < ls->tau) {
      it = ls->buckets.erase(it);
    } else {
      break;
    }
  }
  for (auto it = ls->progress.begin(); it != ls->progress.end();) {
    if (it->first + 1 < ls->tau) {
      it = ls->progress.erase(it);
    } else {
      break;
    }
  }

  ReleaseBlocked(*ls, out);
  RetryStalled(*ls, out);
}

void ProtocolStateMachine::ReleaseBlocked(LoopState& ls, EngineActions* out) {
  const BatchVertexProgram* batch_prog = config_->program->AsBatch();
  // Updates with iteration <= tau + B - 2 are now gatherable.
  while (!ls.blocked.empty() &&
         !policy_.ShouldBlock(ls.blocked.begin()->first, ls.tau)) {
    std::vector<BlockedUpdate> batch = std::move(ls.blocked.begin()->second);
    ls.blocked.erase(ls.blocked.begin());
    size_t i = 0;
    while (i < batch.size()) {
      const BlockedUpdate& b = batch[i];
      VertexSession& s = GetOrCreateVertex(ls, b.dst);
      if (batch_prog != nullptr) {
        i = GatherUpdateRun(ls, s, *batch_prog, batch, i, out);
        continue;
      }
      TCHECK_GE(ls.blocked_count, 1u);
      --ls.blocked_count;
      observer_->OnUnblocked(ls.loop, ls.epoch, b.dst, b.iteration);
      GatherUpdate(ls, s, b.src, b.iteration, b.update, out);
      ++i;
    }
  }
}

size_t ProtocolStateMachine::GatherUpdateRun(
    LoopState& ls, VertexSession& s, const BatchVertexProgram& prog,
    const std::vector<BlockedUpdate>& batch, size_t i, EngineActions* out) {
  // Deferring an update's gather is legal only while its post-bookkeeping
  // MaybePrepare is provably a no-op irrespective of the dirty flag: the
  // vertex is mid-prepare (update_time set) or still waiting on producers
  // (prepare_list non-empty). OnUpdate can touch neither, so the whole
  // run can be applied in one OnUpdateBatch pass with message-for-message
  // identical behavior. The moment the condition fails — or the run ends
  // — the accumulated items are flushed before anything can observe the
  // deferred state.
  std::vector<BatchVertexProgram::QueuedUpdate> run;
  const double per_item_cost =
      config_->cost.per_update_cpu + config_->program->GatherCost();
  auto flush = [&]() {
    if (run.empty()) return;
    EngineContext ctx(EngineContext::Mode::kUpdate, ls.loop, s.iter, &s,
                      &out->cost);
    if (prog.OnUpdateBatch(ctx, run.data(), run.size(), per_item_cost)) {
      s.dirty = true;
      SyncActive(ls, s);
    }
    run.clear();
  };
  size_t consumed = i;
  while (consumed < batch.size() && batch[consumed].dst == s.id) {
    const BlockedUpdate& b = batch[consumed];
    // Bookkeeping identical to the per-update path (GatherUpdate).
    TCHECK_GE(ls.blocked_count, 1u);
    --ls.blocked_count;
    observer_->OnUnblocked(ls.loop, ls.epoch, b.dst, b.iteration);
    ls.buckets[b.iteration].gathered++;
    s.prepare_list.erase(b.src);
    const bool deferrable =
        s.update_time.has_value() || !s.prepare_list.empty();
    if (b.update.kind == kNoopUpdateKind) {
      s.iter = std::max({s.iter, b.iteration + 1, ls.tau});
      if (!deferrable) {
        flush();
        MaybePrepare(ls, s, out);
      }
      ++consumed;
      continue;
    }
    if (b.iteration < s.merge_floor) {
      if (!deferrable) {
        flush();
        MaybePrepare(ls, s, out);
      }
      ++consumed;
      continue;
    }
    s.iter = std::max({s.iter, b.iteration + 1, ls.tau});
    run.push_back(
        BatchVertexProgram::QueuedUpdate{b.src, b.iteration, &b.update});
    ++consumed;
    if (!deferrable) {
      flush();
      MaybePrepare(ls, s, out);
    }
  }
  flush();
  return consumed;
}

void ProtocolStateMachine::RetryStalled(LoopState& ls, EngineActions* out) {
  // Sorted snapshot: retry order decides PREPARE emission order (DET-003).
  std::vector<VertexId> retry = SortedKeys(ls.stalled);
  for (VertexId v : retry) {
    auto it = ls.vertices.find(v);
    if (it == ls.vertices.end()) {
      ls.stalled.erase(v);
      continue;
    }
    MaybePrepare(ls, it->second, out);
  }
}

// ---------------------------------------------------------------------------
// Branch loops (fork / merge), recovery
// ---------------------------------------------------------------------------

void ProtocolStateMachine::HandleForkBranch(const ForkBranchMsg& msg,
                                            EngineActions* out) {
  if (sessions_->Has(msg.branch)) return;  // duplicate
  LoopState& branch = CreateLoop(msg.branch, msg.epoch, 0);

  // Load this partition's slice of the snapshot (materialized by the
  // master under the branch loop id at iteration 0).
  size_t loaded = 0;
  for (VertexId v : sessions_->store()->VerticesOf(msg.branch)) {
    if (!OwnsVertex(v)) continue;
    VertexSession& s = GetOrCreateVertex(branch, v);
    ++loaded;
    if (config_->program->ActivateOnFork(*s.state)) {
      s.dirty = true;
      SyncActive(branch, s);
    }
  }
  out->cost += config_->cost.store_write_cost * static_cast<double>(loaded);

  // Transfer the main loop's in-flight frontier: vertices that are active
  // or committed beyond the snapshot start the branch dirty — this is the
  // approximation error the branch has to resolve (Section 3.3).
  LoopState* parent = sessions_->Get(msg.parent);
  if (parent != nullptr) {
    // Ordered walk: session creation order seeds the branch's hash tables
    // and must not depend on the parent's hash-table layout (DET-003).
    ForEachOrdered(parent->vertices, [&](VertexId v, VertexSession& ps) {
      // Vertices committed *at* the snapshot iteration are included: their
      // updates may still have been in flight toward consumers when the
      // snapshot was cut, so they must re-scatter in the branch.
      const bool active = ps.dirty || ps.update_time.has_value() ||
                          !ps.pending_inputs.empty() ||
                          (ps.last_commit != kNoIteration &&
                           ps.last_commit >= msg.snapshot_iteration);
      if (!active) return;
      VertexSession& s = GetOrCreateVertex(branch, v);
      s.dirty = true;
      SyncActive(branch, s);
      config_->program->OnRestore(s.state.get());
    });
    for (auto& [iter, batch] : parent->blocked) {
      for (const BlockedUpdate& b : batch) {
        VertexSession& s = GetOrCreateVertex(branch, b.dst);
        s.dirty = true;
        SyncActive(branch, s);
        config_->program->OnRestore(s.state.get());
      }
    }
  }

  // Sorted ids: this loop's PREPARE/commit emission order feeds straight
  // into the network (DET-003).
  for (VertexId v : SortedKeys(branch.vertices)) {
    MaybePrepare(branch, branch.vertices.at(v), out);
  }

  ReplayOrphans(msg.branch, msg.epoch, out);
  // Report immediately so an empty branch converges quickly.
  LoopState* after = sessions_->Get(msg.branch);
  TCHECK(after != nullptr);
  BuildReport(*after, out);
}

void ProtocolStateMachine::HandleRestartLoop(const RestartLoopMsg& msg,
                                             EngineActions* out) {
  LoopState& loop = CreateLoop(
      msg.loop, msg.new_epoch,
      msg.from_iteration == kNoIteration ? 0 : msg.from_iteration + 1);

  if (msg.from_iteration != kNoIteration) {
    size_t loaded = 0;
    for (VertexId v : sessions_->store()->VerticesOf(msg.loop)) {
      if (!OwnsVertex(v)) continue;
      VertexSession s;
      s.id = v;
      s.rng = sessions_->MakeVertexRng(msg.loop, v);
      if (!sessions_->LoadFromStore(loop, v, msg.from_iteration, &s)) {
        continue;
      }
      // Re-drive the computation from the checkpoint: every restored
      // vertex re-scatters once so work lost in the rollback is redone.
      s.dirty = true;
      config_->program->OnRestore(s.state.get());
      SyncActive(loop, loop.vertices.emplace(v, std::move(s)).first->second);
      ++loaded;
    }
    out->cost += config_->cost.store_write_cost * static_cast<double>(loaded);
    // Sorted ids: re-drive order decides PREPARE emission order (DET-003).
    for (VertexId v : SortedKeys(loop.vertices)) {
      MaybePrepare(loop, loop.vertices.at(v), out);
    }
  }
  ReplayOrphans(msg.loop, msg.new_epoch, out);
  LoopState* after = sessions_->Get(msg.loop);
  TCHECK(after != nullptr);
  BuildReport(*after, out);
}

void ProtocolStateMachine::HandleStopLoop(const StopLoopMsg& msg) {
  sessions_->Drop(msg.loop);
  observer_->OnLoopDropped(msg.loop, index_);
}

void ProtocolStateMachine::HandleAdoptMerge(const AdoptMergeMsg& msg) {
  LoopState* ls = ResolveLoop(msg.loop, msg.epoch);
  if (ls == nullptr) return;
  for (VertexId v : sessions_->store()->VerticesWithVersionAt(
           msg.loop, msg.merge_iteration)) {
    if (!OwnsVertex(v)) continue;
    VertexSession& s = GetOrCreateVertex(*ls, v);
    if (s.update_time.has_value()) continue;  // mid-prepare: skip adoption
    VertexSession fresh;
    fresh.id = v;
    fresh.rng = s.rng;
    if (!sessions_->LoadFromStore(*ls, v, msg.merge_iteration, &fresh)) {
      continue;
    }
    s.state = std::move(fresh.state);
    s.input = std::move(fresh.input);
    s.input_changed = false;
    s.SetTargets(fresh.targets());
    s.iter = std::max(s.iter, msg.merge_iteration);
    if (s.last_commit == kNoIteration || s.last_commit < msg.merge_iteration) {
      s.last_commit = msg.merge_iteration;
    }
    s.merge_floor = msg.merge_iteration;
    s.dirty = false;
    SyncActive(*ls, s);
    observer_->OnMergeAdopted(ls->loop, ls->epoch, v, msg.merge_iteration);
  }
}

// ---------------------------------------------------------------------------
// Progress reporting (with flush-before-report checkpointing)
// ---------------------------------------------------------------------------

std::shared_ptr<ProgressMsg> ProtocolStateMachine::BuildReport(
    LoopState& ls, EngineActions* out) {
  if (ls.writes_since_flush > 0) {
    // Section 5.3: "before [reporting progress], it should flush all the
    // versions produced in the iteration to disks".
    out->cost += config_->cost.flush_base_cost +
                 config_->cost.flush_per_version *
                     static_cast<double>(ls.writes_since_flush);
    const uint64_t flushed =
        sessions_->FlushForReport(ls, BoundIteration(ls));
    observer_->OnFlush(ls.loop, flushed);
  }

  auto report = std::make_shared<ProgressMsg>();
  report->loop = ls.loop;
  report->epoch = ls.epoch;
  report->processor = index_;
  report->local_tau = ls.tau;
  report->blocked_updates = ls.blocked_count;
  report->inputs_gathered = ls.inputs_gathered;
  report->prepares_sent = ls.prepares_sent;
  report->report_seq = ++ls.report_seq;
  report->buckets = ls.buckets;

  // Only active sessions can still commit, so only they bound the
  // earliest iteration pending work may land at.
  Iteration min_work = kNoIteration;
  for (const VertexSession* s : ls.active) {
    const Iteration mc = MinCommitIteration(ls, *s);
    if (mc < min_work) min_work = mc;
  }
#ifdef TORNADO_CHECK
  // The full scan the active set replaces.
  Iteration scanned = kNoIteration;
  size_t scanned_active = 0;
  // NOLINTNEXTLINE(DET-003): min-aggregation is order-insensitive.
  for (const auto& [v, s] : ls.vertices) {
    if (!s.dirty && !s.update_time.has_value()) continue;
    ++scanned_active;
    scanned = std::min(scanned, MinCommitIteration(ls, s));
  }
  TCHECK_EQ(scanned, min_work) << "active set of loop " << ls.loop;
  TCHECK_EQ(scanned_active, ls.active.size()) << "loop " << ls.loop;
#endif
  report->min_work_iter = min_work;
  observer_->OnReport(ls.loop, index_, ls.active.size());

  double progress_sum = 0.0;
  for (const auto& [iter, p] : ls.progress) progress_sum += p;
  report->progress_sum = progress_sum;

  SendToMaster(out, report);
  return report;
}

}  // namespace tornado
