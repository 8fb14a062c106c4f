#ifndef TORNADO_STORAGE_DURABLE_STORE_H_
#define TORNADO_STORAGE_DURABLE_STORE_H_

#include <string>
#include <vector>

#include "common/mutex.h"
#include "runtime/substrate.h"
#include "storage/checkpoint_log.h"
#include "storage/versioned_store.h"

namespace tornado {

/// A VersionedStore bonded to an on-disk checkpoint log: versions become
/// durable on Flush (appended to the log), and a fresh process can rebuild
/// the durable prefix of the store with Recover(). This is the file-backed
/// state backend for users embedding the library outside the simulated
/// cluster; inside the simulation the flush cost model stands in for the
/// physical I/O this class performs.
///
/// Thread story (docs/RUNTIME.md): with auto-flush armed on the thread
/// substrate, flush traffic runs on the scheduler's timer thread while the
/// driver may Open/Flush/Close concurrently. mu_ serializes the log and the
/// timer state across those two threads; the store has its own lock
/// (SetThreadSafe). Lock order: mu_, then the store guard — never the
/// reverse.
class DurableStore {
 public:
  DurableStore() = default;

  /// Opens (or creates) the log at `path` and replays any existing durable
  /// versions into the in-memory store. Returns the number of records
  /// recovered.
  Result<size_t> Open(const std::string& path);

  /// See VersionedStore::Put. Writes are buffered in memory until Flush.
  void Put(LoopId loop, VertexId vertex, Iteration iteration,
           std::vector<uint8_t> value, InputBlob input = nullptr);

  /// Makes all versions of `loop` up to `iteration` durable: appends the
  /// newly-covered versions to the log, then advances the watermark.
  /// Returns the number of versions persisted.
  Result<size_t> Flush(LoopId loop, Iteration iteration) {
    const MutexLock lock(&mu_);
    return FlushLocked(loop, iteration);
  }

  /// Drops everything newer than the durable watermark (crash recovery of
  /// the in-memory state without re-reading the log).
  void RecoverToDurable(LoopId loop) { store_.RecoverToDurable(loop); }

  /// Arms a periodic background flush of every loop, every `period`
  /// substrate seconds: each tick flushes all dirty loops up to their
  /// newest version, then re-arms. On the sim substrate the ticks run in
  /// virtual time; on the thread substrate they run on the timer thread —
  /// call store().SetThreadSafe(true) first if other threads Put
  /// concurrently. Idempotent: re-arming replaces the previous schedule.
  void ScheduleAutoFlush(Scheduler* scheduler, double period);

  /// Cancels the periodic flush (no-op if none armed). Called by Close().
  /// A tick already past its cancellation point may still run once; it
  /// serializes behind mu_ and sees the cleared schedule, so it neither
  /// re-arms nor touches a closed log.
  void StopAutoFlush() {
    const MutexLock lock(&mu_);
    StopAutoFlushLocked();
  }

  /// Number of auto-flush ticks that have run (tests/observability).
  uint64_t auto_flushes() const {
    const MutexLock lock(&mu_);
    return auto_flushes_;
  }

  VersionedStore& store() { return store_; }
  const VersionedStore& store() const { return store_; }

  Status Close() {
    const MutexLock lock(&mu_);
    StopAutoFlushLocked();
    return log_.Close();
  }

 private:
  std::vector<LoopId> CollectLoops() const;
  void AutoFlushTick();
  void StopAutoFlushLocked() REQUIRES(mu_);
  Result<size_t> FlushLocked(LoopId loop, Iteration iteration) REQUIRES(mu_);

  VersionedStore store_;  // has its own lock; see SetThreadSafe
  std::string path_;      // written once by Open(), before flush traffic

  // Serializes driver calls (Open/Flush/Close/ScheduleAutoFlush) against
  // auto-flush ticks running on the scheduler's timer thread. The
  // unsynchronized sharing of the log and the timer/interval fields across
  // those threads was a latent race before this lock existed.
  mutable Mutex mu_;
  CheckpointLog log_ GUARDED_BY(mu_);
  Scheduler* flush_scheduler_ GUARDED_BY(mu_) = nullptr;
  TimerId flush_timer_ GUARDED_BY(mu_) = 0;
  double flush_period_ GUARDED_BY(mu_) = 0.0;
  uint64_t auto_flushes_ GUARDED_BY(mu_) = 0;
};

}  // namespace tornado

#endif  // TORNADO_STORAGE_DURABLE_STORE_H_
