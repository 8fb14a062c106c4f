#include "storage/durable_store.h"

#include <algorithm>

namespace tornado {

Result<size_t> DurableStore::Open(const std::string& path) {
  const MutexLock lock(&mu_);
  path_ = path;
  size_t recovered = 0;
  {
    CheckpointLog reader;
    auto replayed = reader.Replay(path, &store_);
    if (replayed.ok()) {
      recovered = *replayed;
    } else if (replayed.status().code() != StatusCode::kNotFound) {
      return replayed.status();
    }
  }
  // Mark replayed content durable so Flush does not re-append it.
  // (Replay() only creates versions that were durable when written.)
  // Loops present after replay get their watermark set to their newest
  // replayed iteration.
  for (LoopId loop : CollectLoops()) {
    Iteration newest = 0;
    bool any = false;
    for (VertexId v : store_.VerticesOf(loop)) {
      if (!store_.GetLatest(loop, v)) continue;
      const Iteration it = store_.GetVersionIteration(loop, v, kNoIteration - 1);
      newest = std::max(newest, it);
      any = true;
    }
    if (any) store_.Flush(loop, newest);
  }

  if (Status s = log_.Open(path); !s.ok()) return s;
  return recovered;
}

std::vector<LoopId> DurableStore::CollectLoops() const {
  // The store has no loop-enumeration API (the engine always knows its
  // loops); probe the ids the engine uses: main loop plus branch ids are
  // assigned densely from 1, and the master journal uses 0xFFFFFFFE.
  std::vector<LoopId> loops;
  for (LoopId candidate = 0; candidate < 4096; ++candidate) {
    if (!store_.VerticesOf(candidate).empty()) loops.push_back(candidate);
  }
  if (!store_.VerticesOf(0xFFFFFFFEu).empty()) loops.push_back(0xFFFFFFFEu);
  return loops;
}

void DurableStore::Put(LoopId loop, VertexId vertex, Iteration iteration,
                       std::vector<uint8_t> value, InputBlob input) {
  store_.Put(loop, vertex, iteration, std::move(value), std::move(input));
}

Result<size_t> DurableStore::FlushLocked(LoopId loop, Iteration iteration) {
  if (!log_.is_open()) {
    return Status::FailedPrecondition("durable store is not open");
  }
  // The guard spans the collect-then-append below: the VersionViews are
  // only valid while no other thread mutates the store (no-op guard in
  // the default single-threaded mode). Lock order: mu_ is already held,
  // the store guard nests inside it.
  const VersionedStore::Guard guard = store_.Lock();
  // Append every version that the new watermark covers and the old one did
  // not, in deterministic (vertex, iteration) order.
  const Iteration old_watermark = store_.DurableIteration(loop);
  size_t persisted = 0;
  std::vector<VertexId> vertices = store_.VerticesOf(loop);
  std::sort(vertices.begin(), vertices.end());
  for (VertexId v : vertices) {
    // Walk this vertex's chain between the watermarks.
    Iteration at = iteration;
    // VersionViews stay valid across this collect-then-append: nothing
    // below mutates the store until the trailing Flush.
    std::vector<std::pair<Iteration, VersionView>> pending;
    while (true) {
      const VersionView value = store_.Get(loop, v, at);
      if (!value) break;
      const Iteration version = store_.GetVersionIteration(loop, v, at);
      if (old_watermark != kNoIteration && version <= old_watermark) break;
      pending.emplace_back(version, value);
      if (version == 0) break;
      at = version - 1;
    }
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
      if (Status s = log_.Append(loop, v, it->first, it->second.data(),
                                 it->second.size(), it->second.input().get());
          !s.ok()) {
        return s;
      }
      ++persisted;
    }
  }
  store_.Flush(loop, iteration);
  return persisted;
}

void DurableStore::ScheduleAutoFlush(Scheduler* scheduler, double period) {
  const MutexLock lock(&mu_);
  StopAutoFlushLocked();
  flush_scheduler_ = scheduler;
  flush_period_ = period;
  flush_timer_ =
      scheduler->ScheduleAfter(period, [this]() { AutoFlushTick(); });
}

void DurableStore::StopAutoFlushLocked() {
  if (flush_scheduler_ != nullptr && flush_timer_ != 0) {
    flush_scheduler_->Cancel(flush_timer_);
  }
  flush_timer_ = 0;
  flush_scheduler_ = nullptr;
}

void DurableStore::AutoFlushTick() {
  {
    const MutexLock lock(&mu_);
    ++auto_flushes_;
  }
  for (LoopId loop : CollectLoops()) {
    if (store_.DirtyVersions(loop) == 0) continue;
    // Flush to the newest version present; failures surface on the next
    // explicit Flush/Close (the log keeps its error state). The public
    // Flush re-takes mu_ — it cannot be held across this call (Mutex is
    // not recursive), and dropping it between ticks is what lets the
    // driver Close() without waiting out a whole flush pass.
    (void)Flush(loop, kNoIteration - 1);
  }
  const MutexLock lock(&mu_);
  if (flush_scheduler_ == nullptr) return;  // stopped while this tick ran
  flush_timer_ = flush_scheduler_->ScheduleAfter(flush_period_,
                                                 [this]() { AutoFlushTick(); });
}

}  // namespace tornado
