#include "core/master.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/ordered.h"
#include "common/serde.h"
#include "trace/trace_recorder.h"

namespace tornado {

namespace {
/// Pseudo-loop id under which the master journals its control state.
constexpr LoopId kJournalLoop = 0xFFFFFFFEu;
}  // namespace

Master::Master(const JobConfig* config, VersionedStore* store,
               NodeId first_processor_node, NodeId ingester_node)
    : config_(config),
      store_(store),
      first_processor_node_(first_processor_node),
      ingester_node_(ingester_node),
      policy_(config->delay_bound) {
  LoopControl main;
  main.loop = kMainLoop;
  main.latest.resize(config_->num_processors);
  loops_.emplace(kMainLoop, std::move(main));
}

void Master::OnRestart() {
  if (trace_ != nullptr) {
    trace_->Instant(trace_cat::kMaster, "master_restart", id());
  }
  // In-memory control state is gone; reload the journal (Section 5.3).
  loops_.clear();
  queries_.clear();
  next_branch_id_ = 1;
  if (!LoadJournal()) {
    LoopControl main;
    main.loop = kMainLoop;
    main.latest.resize(config_->num_processors);
    loops_.emplace(kMainLoop, std::move(main));
  }
  // Re-announce terminated iterations (processors may have missed the
  // notification) and solicit fresh progress reports. Announcement order
  // feeds the network (DET-003).
  ForEachOrdered(loops_, [&](LoopId, LoopControl& lc) {
    if (lc.converged || lc.last_terminated == kNoIteration) return;
    auto term = std::make_shared<TerminatedMsg>();
    term->loop = lc.loop;
    term->epoch = lc.epoch;
    term->upto = lc.last_terminated;
    Broadcast(std::move(term));
  });
  Broadcast(std::make_shared<MasterHelloMsg>());
}

void Master::Broadcast(PayloadPtr msg) {
  for (uint32_t p = 0; p < config_->num_processors; ++p) {
    Send(first_processor_node_ + p, msg);
  }
}

void Master::OnMessage(NodeId src, const Payload& msg) {
  (void)src;
  if (const auto* m = dynamic_cast<const ProgressMsg*>(&msg)) {
    HandleProgress(*m);
  } else if (const auto* m = dynamic_cast<const QueryMsg*>(&msg)) {
    HandleQuery(*m);
  } else if (const auto* m = dynamic_cast<const ProcessorHelloMsg*>(&msg)) {
    HandleHello(*m);
  } else {
    TLOG_WARN << "master: unknown message " << msg.name();
  }
}

void Master::HandleHello(const ProcessorHelloMsg& msg) {
  if (!msg.restarted) return;
  // A worker came back with empty memory: roll every active loop back to
  // its last terminated iteration under a fresh epoch. Coalesce multiple
  // hellos arriving in one burst.
  if (recovery_pending_) return;
  recovery_pending_ = true;
  ScheduleSelf(0.0, [this]() {
    recovery_pending_ = false;
    RecoverAfterProcessorFailure();
  });
}

void Master::RecoverAfterProcessorFailure() {
  // Rollback order decides the order RestartLoopMsgs hit the wire
  // (DET-003), so walk the loops by id.
  ForEachOrdered(loops_, [&](LoopId, LoopControl& lc) {
    if (lc.converged) return;
    lc.epoch++;
    lc.latest.assign(config_->num_processors, std::nullopt);
    lc.has_snapshot = false;
    lc.small_progress_run = 0;
    if (lc.last_terminated == kNoIteration) {
      if (lc.is_branch) {
        // Restore the fork snapshot: drop everything the branch computed
        // and re-materialize iteration 0 from the parent.
        store_->DropLoop(lc.loop);
        store_->ForkLoop(lc.parent, lc.snapshot_iteration, lc.loop);
      } else {
        store_->DropLoop(lc.loop);
      }
    } else {
      store_->TruncateAfter(lc.loop, lc.last_terminated);
    }
    AddCost(config_->cost.flush_base_cost);
    if (trace_ != nullptr) {
      trace_->Instant(trace_cat::kMaster, "recovery_rollback", id(),
                      {{"loop", lc.loop}, {"epoch", lc.epoch}});
    }

    auto restart = std::make_shared<RestartLoopMsg>();
    restart->loop = lc.loop;
    restart->new_epoch = lc.epoch;
    restart->from_iteration = lc.is_branch && lc.last_terminated == kNoIteration
                                  ? Iteration{0}
                                  : lc.last_terminated;
    // A freshly re-forked branch restarts from its snapshot at iteration 0.
    if (lc.is_branch && lc.last_terminated == kNoIteration) {
      restart->from_iteration = 0;
    }
    Broadcast(restart);
    if (lc.loop == kMainLoop) Send(ingester_node_, restart);
    TLOG_INFO << "master: loop " << lc.loop << " rolled back to iteration "
              << static_cast<int64_t>(
                     lc.last_terminated == kNoIteration
                         ? -1
                         : static_cast<int64_t>(lc.last_terminated))
              << " (epoch " << lc.epoch << ")";
  });
  PersistJournal();
}

void Master::HandleProgress(const ProgressMsg& msg) {
  auto it = loops_.find(msg.loop);
  if (it == loops_.end()) return;
  LoopControl& lc = it->second;
  if (lc.converged || msg.epoch != lc.epoch) return;
  TCHECK_LT(msg.processor, lc.latest.size());
  std::optional<ProgressMsg>& slot = lc.latest[msg.processor];
  if (slot.has_value() && slot->report_seq >= msg.report_seq) return;
  slot = msg;
  TryTerminate(lc);
}

// ---------------------------------------------------------------------------
// Iteration termination (Section 4.3)
// ---------------------------------------------------------------------------

void Master::TryTerminate(LoopControl& lc) {
  // Need a report from every processor under the current epoch.
  for (const auto& slot : lc.latest) {
    if (!slot.has_value()) return;
  }

  const Iteration base =
      lc.last_terminated == kNoIteration ? 0 : lc.last_terminated + 1;

  // Aggregate buckets and the minimum iteration any pending work can still
  // commit at.
  Iteration min_work = kNoIteration;
  std::map<Iteration, IterationCounters> sum;
  uint64_t blocked = 0;
  for (const auto& slot : lc.latest) {
    if (slot->min_work_iter < min_work) min_work = slot->min_work_iter;
    blocked += slot->blocked_updates;
    for (const auto& [iter, c] : slot->buckets) {
      if (iter < base) continue;
      IterationCounters& agg = sum[iter];
      agg.committed += c.committed;
      agg.sent += c.sent;
      agg.owned += c.owned;
      agg.gathered += c.gathered;
      agg.progress += c.progress;
    }
  }

  Iteration max_activity = base == 0 ? 0 : base - 1;
  for (const auto& [iter, c] : sum) {
    if (c.committed > 0 || c.sent > 0) max_activity = std::max(max_activity, iter);
  }

  // Candidate limit: the largest iteration that could possibly terminate.
  // While work is pending (min_work set), everything strictly below the
  // earliest possible commit may terminate — crucially including empty
  // iterations, because work stalled at the delay bound needs tau to
  // advance before it can commit at all. When fully quiescent, the main
  // loop terminates up to its last activity and stops; a branch loop
  // terminates one empty iteration past it — the quiescence signal its
  // convergence detection consumes.
  Iteration limit;
  if (min_work != kNoIteration) {
    if (min_work == 0) return;  // work can still land at iteration 0
    limit = min_work - 1;
  } else {
    limit = lc.is_branch ? max_activity + 1 : max_activity;
  }
  if (limit < base) return;

  // An unsettled bucket j (updates tagged j still in flight or blocked at
  // the delay bound) does not prevent terminating j itself — a tagged-j
  // update can only cause commits at >= j+1 — but it blocks everything
  // beyond j.
  Iteration candidate = limit;
  bool fully_settled = true;
  for (const auto& [iter, c] : sum) {
    if (iter > candidate) break;
    if (c.sent != c.gathered) {
      fully_settled = false;
      if (iter < candidate) candidate = iter;
      break;
    }
  }
  if (candidate < base) return;
  (void)fully_settled;

  // Double collection: the aggregated picture must be identical across two
  // successive report rounds (every processor reported in between) before
  // the candidate is trusted — in-flight messages would otherwise be
  // mistaken for quiescence.
  // Only candidate-relevant state is compared: the counters of buckets at
  // or below the candidate. Volatile global state (blocked counts, the
  // exact min_work value) changes every round under load but does not
  // affect whether the candidate may terminate — comparing it would keep
  // the detector from ever stabilizing on a busy main loop. The
  // comparison is exact, so no changed picture can pass for the snapshot.
  std::vector<BucketSnapshot> picture;
  for (const auto& [iter, c] : sum) {
    if (iter > candidate) break;
    picture.push_back({iter, c.committed, c.sent, c.gathered});
  }
  (void)blocked;

  if (!lc.has_snapshot || lc.snapshot_candidate != candidate ||
      lc.snapshot != picture) {
    // First collection of this picture: snapshot it and wait until every
    // processor has reported again with the picture unchanged.
    lc.snapshot_candidate = candidate;
    lc.snapshot = std::move(picture);
    lc.has_snapshot = true;
    lc.snapshot_seqs.assign(lc.latest.size(), 0);
    for (uint32_t p = 0; p < lc.latest.size(); ++p) {
      lc.snapshot_seqs[p] = lc.latest[p]->report_seq;
    }
    return;
  }
  // Same picture as the snapshot: it counts as the second collection only
  // once all processors have reported since the snapshot was taken.
  for (uint32_t p = 0; p < lc.latest.size(); ++p) {
    if (lc.latest[p]->report_seq <= lc.snapshot_seqs[p]) return;
  }

  // Record per-iteration stats for the newly terminated range.
  for (Iteration j = base; j <= candidate; ++j) {
    IterationStat stat;
    stat.iteration = j;
    stat.terminated_at = now();
    auto sit = sum.find(j);
    if (sit != sum.end()) {
      stat.committed = sit->second.committed;
      stat.sent = sit->second.sent;
      stat.progress = sit->second.progress;
    }
    lc.stats.push_back(stat);
  }

  Terminate(lc, candidate);
  CheckConvergence(lc, base);
}

void Master::Terminate(LoopControl& lc, Iteration upto) {
  lc.last_terminated = upto;
  lc.has_snapshot = false;
  transport()->metrics().Inc(metric::kIterationsTerminated);
  if (trace_ != nullptr) {
    trace_->Instant(trace_cat::kMaster, "terminate", id(),
                    {{"loop", lc.loop}, {"upto", upto}});
  }
  // History below the last terminated iteration can never be forked from
  // or rolled back to again; garbage-collect it. The exception is the fork
  // snapshot of a branch that has not terminated an iteration yet: a
  // processor failure re-forks such a branch from its parent
  // (RecoverAfterProcessorFailure), so the snapshot must stay readable.
  if (upto > 0) {
    Iteration keep = upto - 1;
    // NOLINTNEXTLINE(DET-003): min-aggregation is order-insensitive.
    for (const auto& [id, other] : loops_) {
      if (other.is_branch && other.parent == lc.loop && !other.converged &&
          other.last_terminated == kNoIteration) {
        keep = std::min(keep, other.snapshot_iteration);
      }
    }
    store_->PruneBelow(lc.loop, keep);
  }
  auto term = std::make_shared<TerminatedMsg>();
  term->loop = lc.loop;
  term->epoch = lc.epoch;
  term->upto = upto;
  Broadcast(std::move(term));
  PersistJournal();
}

// ---------------------------------------------------------------------------
// Convergence (Section 4.3) and branch completion (Section 5.2)
// ---------------------------------------------------------------------------

void Master::CheckConvergence(LoopControl& lc, Iteration newly_from) {
  if (!lc.is_branch) return;  // the main loop adapts forever
  const ConvergencePolicy& policy = config_->convergence;

  uint64_t blocked = 0;
  Iteration min_work = kNoIteration;
  uint64_t sent = 0, gathered = 0;
  for (const auto& slot : lc.latest) {
    blocked += slot->blocked_updates;
    if (slot->min_work_iter < min_work) min_work = slot->min_work_iter;
    for (const auto& [iter, c] : slot->buckets) {
      // Buckets below the terminated watermark are dropped by processors
      // at different times; senders and receivers of one bucket live on
      // different processors, so summing a half-dropped bucket would show
      // a phantom sent/gathered mismatch.
      if (iter < lc.last_terminated) continue;
      sent += c.sent;
      gathered += c.gathered;
    }
  }

  bool converged = false;
  if (policy.quiescence) {
    // The newest terminated iteration had no commits and nothing remains
    // pending, in flight, or blocked: fixed point reached.
    const IterationStat& last = lc.stats.back();
    if (last.committed == 0 && blocked == 0 && min_work == kNoIteration &&
        sent == gathered) {
      converged = true;
    }
  }
  if (!converged && policy.epsilon >= 0.0) {
    for (Iteration j = newly_from; j <= lc.last_terminated; ++j) {
      const IterationStat& stat = lc.stats[lc.stats.size() - 1 -
                                           (lc.last_terminated - j)];
      // Only progress-bearing iterations vote: iterations whose commits
      // carry no progress at all (snapshot loads, the parameter kick,
      // shard rounds between parameter steps) are neutral — counting them
      // would declare convergence while the optimizer is still moving.
      if (stat.progress > policy.epsilon) {
        lc.progress_seen = true;
        lc.small_progress_run = 0;
      } else if (stat.progress > 0.0 && lc.progress_seen &&
                 ++lc.small_progress_run >= policy.window) {
        converged = true;
        break;
      }
    }
  }
  if (!converged && policy.max_iterations > 0 &&
      lc.last_terminated + 1 >= policy.max_iterations) {
    converged = true;
  }

  if (converged) OnLoopConverged(lc);
}

void Master::OnLoopConverged(LoopControl& lc) {
  lc.converged = true;
  if (trace_ != nullptr) {
    trace_->Instant(trace_cat::kMaster, "loop_converged", id(),
                    {{"loop", lc.loop}, {"iteration", lc.last_terminated}});
  }
  TLOG_INFO << "branch loop " << lc.loop << " converged at iteration "
            << lc.last_terminated << " (t=" << now() << ")";

  for (QueryRecord& q : queries_) {
    if (q.branch != lc.loop || q.done) continue;
    q.done = true;
    q.converge_time = now();
    q.converged_iteration = lc.last_terminated;
    auto result = std::make_shared<QueryResultMsg>();
    result->query_id = q.query_id;
    result->branch = lc.loop;
    result->converged_iteration = lc.last_terminated;
    result->submit_time = q.submit_time;
    Send(ingester_node_, std::move(result));

    if (config_->merge_branches &&
        MainInputsGathered() == lc.inputs_at_fork) {
      MergeBranch(lc);
      q.merged = true;
    }
  }

  auto stop = std::make_shared<StopLoopMsg>();
  stop->loop = lc.loop;
  Broadcast(std::move(stop));
  PersistJournal();
  MaybeAdmitQueuedQueries();
}

uint64_t Master::MainInputsGathered() const {
  auto it = loops_.find(kMainLoop);
  if (it == loops_.end()) return 0;
  uint64_t total = 0;
  for (const auto& slot : it->second.latest) {
    if (slot.has_value()) total += slot->inputs_gathered;
  }
  return total;
}

void Master::MergeBranch(LoopControl& branch) {
  auto main_it = loops_.find(kMainLoop);
  TCHECK(main_it != loops_.end());
  LoopControl& main = main_it->second;
  const Iteration tau =
      main.last_terminated == kNoIteration ? 0 : main.last_terminated + 1;
  const Iteration merge_iteration = policy_.MergeIteration(tau);
  store_->MergeLoop(branch.loop, kMainLoop, merge_iteration);
  if (trace_ != nullptr) {
    trace_->Instant(trace_cat::kMaster, "merge_branch", id(),
                    {{"branch", branch.loop}, {"at", merge_iteration}});
  }
  auto adopt = std::make_shared<AdoptMergeMsg>();
  adopt->loop = kMainLoop;
  adopt->epoch = main.epoch;
  adopt->merge_iteration = merge_iteration;
  Broadcast(std::move(adopt));
  TLOG_INFO << "merged branch " << branch.loop
            << " into main loop at iteration " << merge_iteration;
}

// ---------------------------------------------------------------------------
// Queries -> branch loops (Section 5.2)
// ---------------------------------------------------------------------------

uint32_t Master::RunningBranches() const {
  uint32_t running = 0;
  // NOLINTNEXTLINE(DET-003): counting is order-insensitive.
  for (const auto& [id, lc] : loops_) {
    if (lc.is_branch && !lc.converged) ++running;
  }
  return running;
}

void Master::HandleQuery(const QueryMsg& msg) {
  for (const QueryRecord& q : queries_) {
    if (q.query_id == msg.query_id) return;  // duplicate delivery
  }
  for (const auto& [id, submit] : admission_queue_) {
    if (id == msg.query_id) return;  // duplicate delivery while queued
  }
  // Admission control: fork only while branch slots are free ("the master
  // will start a branch loop to execute the query if there are sufficient
  // idle processors", Section 5.2). Queued queries fork later — against a
  // *fresher* snapshot, which is exactly what the requester wants anyway.
  if (config_->max_concurrent_branches > 0 &&
      RunningBranches() >= config_->max_concurrent_branches) {
    admission_queue_.emplace_back(msg.query_id, msg.submit_time);
    return;
  }
  ForkBranchFor(msg.query_id, msg.submit_time);
}

void Master::MaybeAdmitQueuedQueries() {
  while (!admission_queue_.empty() &&
         (config_->max_concurrent_branches == 0 ||
          RunningBranches() < config_->max_concurrent_branches)) {
    auto [query_id, submit_time] = admission_queue_.front();
    admission_queue_.erase(admission_queue_.begin());
    ForkBranchFor(query_id, submit_time);
  }
}

void Master::ForkBranchFor(uint64_t query_id, double submit_time) {
  auto main_it = loops_.find(kMainLoop);
  TCHECK(main_it != loops_.end());
  LoopControl& main = main_it->second;

  const LoopId branch_id = next_branch_id_++;
  const Iteration snapshot =
      main.last_terminated == kNoIteration ? 0 : main.last_terminated;
  store_->ForkLoop(kMainLoop, snapshot, branch_id);
  AddCost(config_->cost.flush_base_cost);
  if (trace_ != nullptr) {
    trace_->Instant(trace_cat::kMaster, "fork_branch", id(),
                    {{"query", query_id},
                     {"branch", branch_id},
                     {"snapshot", snapshot}});
  }

  LoopControl lc;
  lc.loop = branch_id;
  lc.is_branch = true;
  lc.parent = kMainLoop;
  lc.snapshot_iteration = snapshot;
  lc.query_id = query_id;
  lc.inputs_at_fork = MainInputsGathered();
  lc.latest.resize(config_->num_processors);
  loops_.emplace(branch_id, std::move(lc));

  QueryRecord record;
  record.query_id = query_id;
  record.branch = branch_id;
  record.snapshot_iteration = snapshot;
  record.submit_time = submit_time;
  record.fork_time = now();
  queries_.push_back(record);

  auto fork = std::make_shared<ForkBranchMsg>();
  fork->branch = branch_id;
  fork->parent = kMainLoop;
  fork->epoch = 0;
  fork->snapshot_iteration = snapshot;
  fork->query_id = query_id;
  Broadcast(std::move(fork));
  PersistJournal();
}

// ---------------------------------------------------------------------------
// Journal (master fault tolerance)
// ---------------------------------------------------------------------------

void Master::PersistJournal() {
  BufferWriter w;
  w.PutU32(static_cast<uint32_t>(loops_.size()));
  // Journal bytes land in the store; keep them replay-identical (DET-003).
  ForEachOrdered(loops_, [&](LoopId, const LoopControl& lc) {
    w.PutU32(lc.loop);
    w.PutU32(lc.epoch);
    w.PutU8(lc.is_branch ? 1 : 0);
    w.PutU32(lc.parent);
    w.PutU64(lc.snapshot_iteration);
    w.PutU64(lc.query_id);
    w.PutU64(lc.inputs_at_fork);
    w.PutU64(lc.last_terminated);
    w.PutU8(lc.converged ? 1 : 0);
  });
  w.PutU32(static_cast<uint32_t>(queries_.size()));
  for (const QueryRecord& q : queries_) {
    w.PutU64(q.query_id);
    w.PutU32(q.branch);
    w.PutU64(q.snapshot_iteration);
    w.PutDouble(q.submit_time);
    w.PutDouble(q.fork_time);
    w.PutDouble(q.converge_time);
    w.PutU64(q.converged_iteration);
    w.PutU8(q.done ? 1 : 0);
    w.PutU8(q.merged ? 1 : 0);
  }
  w.PutU32(next_branch_id_);
  store_->Put(kJournalLoop, 0, 0, w.Release());
  AddCost(config_->cost.store_write_cost);
}

bool Master::LoadJournal() {
  // Guard spans the deserialization: the view dies at the store's next
  // mutation (thread substrate: any node thread).
  const VersionedStore::Guard guard = store_->Lock();
  const VersionView blob = store_->GetLatest(kJournalLoop, 0);
  if (!blob) return false;
  BufferReader r(blob.data(), blob.size());
  uint32_t num_loops = 0;
  if (!r.GetU32(&num_loops).ok()) return false;
  for (uint32_t i = 0; i < num_loops; ++i) {
    LoopControl lc;
    uint8_t flag = 0;
    if (!r.GetU32(&lc.loop).ok()) return false;
    r.GetU32(&lc.epoch);
    r.GetU8(&flag);
    lc.is_branch = flag != 0;
    r.GetU32(&lc.parent);
    r.GetU64(&lc.snapshot_iteration);
    r.GetU64(&lc.query_id);
    r.GetU64(&lc.inputs_at_fork);
    r.GetU64(&lc.last_terminated);
    r.GetU8(&flag);
    lc.converged = flag != 0;
    lc.latest.resize(config_->num_processors);
    loops_.emplace(lc.loop, std::move(lc));
  }
  uint32_t num_queries = 0;
  if (!r.GetU32(&num_queries).ok()) return false;
  for (uint32_t i = 0; i < num_queries; ++i) {
    QueryRecord q;
    uint8_t flag = 0;
    r.GetU64(&q.query_id);
    r.GetU32(&q.branch);
    r.GetU64(&q.snapshot_iteration);
    r.GetDouble(&q.submit_time);
    r.GetDouble(&q.fork_time);
    r.GetDouble(&q.converge_time);
    r.GetU64(&q.converged_iteration);
    r.GetU8(&flag);
    q.done = flag != 0;
    r.GetU8(&flag);
    q.merged = flag != 0;
    queries_.push_back(q);
  }
  r.GetU32(&next_branch_id_);
  return true;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

void Master::DumpTermination(LoopId loop) const {
  auto it = loops_.find(loop);
  if (it == loops_.end()) {
    TLOG_INFO << "master: no loop " << loop;
    return;
  }
  const LoopControl& lc = it->second;
  TLOG_INFO << "master loop " << loop << " epoch " << lc.epoch
            << " last_terminated=" << static_cast<int64_t>(lc.last_terminated)
            << " converged=" << lc.converged
            << " has_snapshot=" << lc.has_snapshot;
  std::map<Iteration, IterationCounters> sum;
  Iteration min_work = kNoIteration;
  for (uint32_t p = 0; p < lc.latest.size(); ++p) {
    if (!lc.latest[p].has_value()) {
      TLOG_INFO << "  proc " << p << ": no report";
      continue;
    }
    const ProgressMsg& m = *lc.latest[p];
    TLOG_INFO << "  proc " << p << " seq=" << m.report_seq << " tau="
              << m.local_tau << " min_work="
              << static_cast<int64_t>(m.min_work_iter)
              << " blocked=" << m.blocked_updates;
    if (m.min_work_iter < min_work) min_work = m.min_work_iter;
    for (const auto& [iter, c] : m.buckets) {
      IterationCounters& agg = sum[iter];
      agg.committed += c.committed;
      agg.sent += c.sent;
      agg.gathered += c.gathered;
      agg.owned += c.owned;
    }
  }
  for (const auto& [iter, c] : sum) {
    TLOG_INFO << "  bucket " << iter << " committed=" << c.committed
              << " sent=" << c.sent << " gathered=" << c.gathered
              << " owned=" << c.owned;
  }
}

Iteration Master::LastTerminated(LoopId loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? kNoIteration : it->second.last_terminated;
}

const std::vector<IterationStat>& Master::StatsOf(LoopId loop) const {
  static const std::vector<IterationStat> kEmpty;
  auto it = loops_.find(loop);
  return it == loops_.end() ? kEmpty : it->second.stats;
}

uint64_t Master::TotalCommitted(LoopId loop) const {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return 0;
  uint64_t total = 0;
  for (const IterationStat& s : it->second.stats) total += s.committed;
  return total;
}

uint64_t Master::TotalPrepares(LoopId loop) const {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return 0;
  uint64_t total = 0;
  for (const auto& slot : it->second.latest) {
    if (slot.has_value()) total += slot->prepares_sent;
  }
  return total;
}

bool Master::IsConverged(LoopId loop) const {
  auto it = loops_.find(loop);
  return it != loops_.end() && it->second.converged;
}

}  // namespace tornado
