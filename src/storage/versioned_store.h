#ifndef TORNADO_STORAGE_VERSIONED_STORE_H_
#define TORNADO_STORAGE_VERSIONED_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/types.h"

namespace tornado {

/// The encoded input part of a vertex version (VertexState::SerializeInput):
/// immutable once written, and shared by every version, fork and merge that
/// carries the same input part. Null when the version has no input part.
using InputBlob = std::shared_ptr<const std::vector<uint8_t>>;

/// Borrowed, non-owning view of one stored version's iteration bytes, plus
/// a shared handle on its input blob. Returned by the store's read API
/// instead of a pointer to an owned vector: iteration bytes live packed in
/// a per-loop arena, so there is no per-version container to point at. A
/// default-constructed view is "absent" (tests false); present views may
/// legitimately be empty (zero-length value).
///
/// Lifetime: the bytes are valid until the next mutation of the owning
/// store (a Put may grow or compact the arena; Truncate/Prune/Drop compact
/// or free it) — the same read-then-act-before-writing discipline callers
/// already needed when erasing map nodes invalidated the old vector
/// pointers. The input blob handle shares ownership and outlives the store.
class VersionView {
 public:
  VersionView() = default;
  VersionView(const uint8_t* data, size_t size, InputBlob input)
      : data_(data), size_(size), present_(true), input_(std::move(input)) {}

  explicit operator bool() const { return present_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }
  std::vector<uint8_t> ToVector() const { return {data_, data_ + size_}; }
  const InputBlob& input() const { return input_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool present_ = false;
  InputBlob input_;
};

/// Multi-versioned vertex-state store: the stand-in for the external
/// database (PostgreSQL / LMDB) Tornado materializes vertex versions into.
///
/// Keys are (loop, vertex); each key holds a version chain ordered by
/// iteration number. The engine appends a version whenever a vertex commits
/// (Section 5.1: "After the vertex's update is committed, the new version
/// of the vertex will be ... written to the storage") and reads
/// snapshot-consistent states when forking branch loops (Section 5.2: "the
/// most recent versions of vertices that are not greater than i will be
/// selected in the snapshot").
///
/// Durability model: a Put is immediately visible but only *durable* after
/// a Flush covering its iteration (processors flush before reporting
/// progress, Section 5.3). Recovery truncates each chain back to the
/// durable watermark.
///
/// Layout: each chain is a flat iteration-sorted vector of
/// (iteration, length, offset, input slot) entries whose iteration bytes
/// live in a per-loop append-only arena — one arena append and at most one
/// entry insert per Put, and snapshot reads are a binary search plus a
/// pointer into the arena (no map nodes, no per-version vector
/// allocations). Pruning and truncation leave garbage bytes behind; the
/// arena compacts itself once garbage exceeds the live volume. Input
/// blobs live outside the arena, in a per-loop table of reference-counted
/// slots that entries name by index: puts, forks and merges that carry an
/// existing blob copy a reference, not its bytes, and the blob is freed
/// with the last version (or session) that refers to it. The index sits
/// in the entry's padding, so versions without an input part cost what
/// they did before input parts existed.
///
/// Locking contract (docs/RUNTIME.md): every public method is a thin
/// wrapper that takes the store Guard and calls a private *Locked impl
/// annotated REQUIRES(mu_), so the clang thread-safety analysis proves no
/// chain/arena state is touched without the capability. At runtime the
/// Guard only physically locks in thread-safe mode; the static story
/// ("mu_ is always held inside the store") over-approximates the
/// single-threaded mode, which is sound.
class VersionedStore {
 public:
  /// RAII lock over the whole store; a no-op unless SetThreadSafe(true)
  /// was called. The underlying mutex is recursive, so holding a Guard
  /// across a compound sequence (Get + deserialize, read-then-write)
  /// nests fine with the per-method locking. Obtained via Lock() only —
  /// the factory's ACQUIRE annotation is what binds the scoped
  /// capability to mu_ for the analysis.
  class SCOPED_CAPABILITY Guard {
   public:
    ~Guard() RELEASE() NO_THREAD_SAFETY_ANALYSIS {
      if (mu_ != nullptr) mu_->Unlock();
    }
    Guard(const Guard&) = delete;
    Guard(Guard&&) = delete;  // prvalue returns elide; no move needed
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;

   private:
    friend class VersionedStore;
    explicit Guard(RecursiveMutex* mu) ACQUIRE(mu) NO_THREAD_SAFETY_ANALYSIS
        : mu_(mu) {
      if (mu_ != nullptr) mu_->Lock();
    }

    RecursiveMutex* mu_;
  };

  /// Thread-safe mode (thread substrate): every public method locks for
  /// its duration. Callers doing compound reads — holding a VersionView
  /// across deserialization, or read-then-act sequences — must hold an
  /// explicit Lock() guard for the whole sequence, because a view is only
  /// valid until the store's next mutation. Flip before any concurrent
  /// access; off by default (the sim substrate is single-threaded and
  /// pays only a null-check per call).
  void SetThreadSafe(bool on) { thread_safe_ = on; }

  /// Acquires the store lock (no-op guard when thread-safe mode is off:
  /// the one place the runtime story is conditional, hence the analysis
  /// escape on the body — callers and everything below the Guard are
  /// still fully checked).
  Guard Lock() const ACQUIRE(mu_) NO_THREAD_SAFETY_ANALYSIS {
    return Guard(thread_safe_ ? &mu_ : nullptr);
  }

  /// Counts the work of Flush and PruneBelow into `metrics`
  /// (metric::kFlushEntriesVisited, metric::kPruneChainsVisited), once per
  /// call; each counter is interned when it is first bumped. Attach before
  /// any concurrent access; the registry must outlive the store.
  void AttachMetrics(MetricRegistry* metrics) { metrics_ = metrics; }

  /// Appends (or overwrites) the version of `vertex` at `iteration`:
  /// `value` is its iteration part, `input` its input part (shared, not
  /// copied).
  void Put(LoopId loop, VertexId vertex, Iteration iteration,
           std::vector<uint8_t> value, InputBlob input = nullptr) {
    const Guard guard = Lock();
    PutBytesLocked(loop, vertex, iteration, value.data(), value.size(),
                   std::move(input));
  }

  /// Same, from a borrowed byte range (no intermediate vector). `data` must
  /// not alias this store's own arenas unless the loops differ.
  void PutBytes(LoopId loop, VertexId vertex, Iteration iteration,
                const uint8_t* data, size_t size, InputBlob input = nullptr) {
    const Guard guard = Lock();
    PutBytesLocked(loop, vertex, iteration, data, size, std::move(input));
  }

  /// Latest version with iteration <= `at`, or an absent view if none.
  VersionView Get(LoopId loop, VertexId vertex, Iteration at) const {
    const Guard guard = Lock();
    return GetLocked(loop, vertex, at);
  }

  /// Iteration of the version returned by Get, or kNoIteration.
  Iteration GetVersionIteration(LoopId loop, VertexId vertex,
                                Iteration at) const {
    const Guard guard = Lock();
    return GetVersionIterationLocked(loop, vertex, at);
  }

  /// Latest version regardless of iteration, or an absent view.
  VersionView GetLatest(LoopId loop, VertexId vertex) const {
    const Guard guard = Lock();
    return GetLatestLocked(loop, vertex);
  }

  /// All vertices that have at least one version in `loop`.
  std::vector<VertexId> VerticesOf(LoopId loop) const {
    const Guard guard = Lock();
    return VerticesOfLocked(loop);
  }

  /// All vertices that have a version at exactly `iteration` (used by
  /// processors to adopt branch results merged at tau + B).
  std::vector<VertexId> VerticesWithVersionAt(LoopId loop,
                                              Iteration iteration) const {
    const Guard guard = Lock();
    return VerticesWithVersionAtLocked(loop, iteration);
  }

  /// Number of versions of `vertex` in `loop`.
  size_t VersionCount(LoopId loop, VertexId vertex) const {
    const Guard guard = Lock();
    return VersionCountLocked(loop, vertex);
  }

  /// Marks all versions of `loop` with iteration <= `iteration` durable and
  /// returns how many versions became durable by this call (the flush cost
  /// is proportional to it).
  size_t Flush(LoopId loop, Iteration iteration) {
    const Guard guard = Lock();
    return FlushLocked(loop, iteration);
  }

  /// Number of versions written after the durable watermark (pending I/O).
  size_t DirtyVersions(LoopId loop) const {
    const Guard guard = Lock();
    return DirtyVersionsLocked(loop);
  }

  /// Durable watermark of `loop` (kNoIteration if never flushed).
  Iteration DurableIteration(LoopId loop) const {
    const Guard guard = Lock();
    return DurableIterationLocked(loop);
  }

  /// Drops all versions newer than `iteration` (global rollback used when
  /// the computation restarts from the last terminated iteration).
  void TruncateAfter(LoopId loop, Iteration iteration) {
    const Guard guard = Lock();
    TruncateAfterLocked(loop, iteration);
  }

  /// Garbage-collects history: for every chain, drops versions older than
  /// the newest version at or below `iteration` (which is kept — it is the
  /// snapshot fork point). Returns the number of versions removed. The
  /// master prunes below the last terminated iteration; nothing older can
  /// be forked or rolled back to.
  size_t PruneBelow(LoopId loop, Iteration iteration) {
    const Guard guard = Lock();
    return PruneBelowLocked(loop, iteration);
  }

  /// Drops everything newer than the durable watermark.
  void RecoverToDurable(LoopId loop) {
    const Guard guard = Lock();
    RecoverToDurableLocked(loop);
  }

  /// Removes a finished branch loop's data.
  void DropLoop(LoopId loop) {
    const Guard guard = Lock();
    DropLoopLocked(loop);
  }

  /// Copies the snapshot of `src` at `iteration` into `dst` as its
  /// iteration-0 baseline (branch-loop fork); input blobs are shared.
  /// Returns #vertices copied.
  size_t ForkLoop(LoopId src, Iteration iteration, LoopId dst) {
    const Guard guard = Lock();
    return ForkLoopLocked(src, iteration, dst);
  }

  /// Copies every vertex's latest version of `src` into `dst_iteration` of
  /// `dst` (merging converged branch results back into the main loop at
  /// iteration τ+B, Section 5.2); input blobs are shared. Returns
  /// #vertices merged.
  size_t MergeLoop(LoopId src, LoopId dst, Iteration dst_iteration) {
    const Guard guard = Lock();
    return MergeLoopLocked(src, dst, dst_iteration);
  }

  size_t TotalVersions() const {
    const Guard guard = Lock();
    return TotalVersionsLocked();
  }
  /// Live iteration bytes of every loop plus the size of every input blob
  /// some version refers to, each blob counted once.
  size_t TotalBytes() const {
    const Guard guard = Lock();
    return TotalBytesLocked();
  }

  /// Arena introspection for tests: physical arena bytes (live + garbage)
  /// of `loop`, and how many compactions it has run. Input blobs are not
  /// in the arena.
  size_t ArenaBytes(LoopId loop) const {
    const Guard guard = Lock();
    return ArenaBytesLocked(loop);
  }
  uint64_t ArenaCompactions(LoopId loop) const {
    const Guard guard = Lock();
    return ArenaCompactionsLocked(loop);
  }

 private:
  // 24 bytes per version; chains stay iteration-sorted (commits arrive in
  // increasing iteration order, so inserts are almost always push_backs).
  struct VersionEntry {
    Iteration iteration = 0;
    uint32_t length = 0;
    uint32_t input = 0;   // 1 + index into LoopData::inputs; 0: no input
    uint64_t offset = 0;  // into LoopData::arena
  };
  struct Chain {
    std::vector<VersionEntry> entries;
    // Key of the chain's current LoopData::prunable listing (kNoIteration:
    // unlisted). While the chain holds two or more versions it is at most
    // entries[1].iteration, so no prune that could shorten it misses it.
    Iteration listed_at = kNoIteration;
  };
  struct InputSlot {
    InputBlob blob;     // null while the slot is free
    uint32_t refs = 0;  // entries of this loop naming the slot
  };
  struct LoopData {
    std::unordered_map<VertexId, Chain> chains;
    std::vector<uint8_t> arena;  // append-only until compaction
    size_t live_bytes = 0;       // arena bytes referenced by some entry
    uint64_t compactions = 0;
    Iteration durable = kNoIteration;
    size_t dirty = 0;
    // Versions above the durable watermark, counted per iteration (the
    // counts sum to `dirty`): a flush sums and erases the entries at or
    // below its watermark instead of walking every chain.
    std::map<Iteration, size_t> pending;
    // Chains by the iteration of their second-oldest version: PruneBelow
    // at `w` removes a version from a chain only if that iteration is at
    // most `w`, so it visits only the listings with keys <= w. A listing
    // whose key no longer matches the chain's `listed_at` is stale (the
    // chain was relisted under a smaller key) and is skipped. Chains are
    // named by address: map nodes do not move, and a chain is erased only
    // together with its loop.
    std::map<Iteration, std::vector<Chain*>> prunable;
    std::vector<InputSlot> inputs;
    std::vector<uint32_t> free_inputs;  // indices of free slots
  };

  // The *Locked bodies (versioned_store.cc). Internal calls go through
  // these directly — the public wrappers exist so the recursion the old
  // per-method locking relied on is no longer needed (or visible to the
  // analysis).
  void PutBytesLocked(LoopId loop, VertexId vertex, Iteration iteration,
                      const uint8_t* data, size_t size, InputBlob input)
      REQUIRES(mu_);
  VersionView GetLocked(LoopId loop, VertexId vertex, Iteration at) const
      REQUIRES(mu_);
  Iteration GetVersionIterationLocked(LoopId loop, VertexId vertex,
                                      Iteration at) const REQUIRES(mu_);
  VersionView GetLatestLocked(LoopId loop, VertexId vertex) const
      REQUIRES(mu_);
  std::vector<VertexId> VerticesOfLocked(LoopId loop) const REQUIRES(mu_);
  std::vector<VertexId> VerticesWithVersionAtLocked(LoopId loop,
                                                    Iteration iteration) const
      REQUIRES(mu_);
  size_t VersionCountLocked(LoopId loop, VertexId vertex) const
      REQUIRES(mu_);
  size_t FlushLocked(LoopId loop, Iteration iteration) REQUIRES(mu_);
  size_t DirtyVersionsLocked(LoopId loop) const REQUIRES(mu_);
  Iteration DurableIterationLocked(LoopId loop) const REQUIRES(mu_);
  void TruncateAfterLocked(LoopId loop, Iteration iteration) REQUIRES(mu_);
  size_t PruneBelowLocked(LoopId loop, Iteration iteration) REQUIRES(mu_);
  void RecoverToDurableLocked(LoopId loop) REQUIRES(mu_);
  void DropLoopLocked(LoopId loop) REQUIRES(mu_);
  size_t ForkLoopLocked(LoopId src, Iteration iteration, LoopId dst)
      REQUIRES(mu_);
  size_t MergeLoopLocked(LoopId src, LoopId dst, Iteration dst_iteration)
      REQUIRES(mu_);
  size_t TotalVersionsLocked() const REQUIRES(mu_);
  size_t TotalBytesLocked() const REQUIRES(mu_);
  size_t ArenaBytesLocked(LoopId loop) const REQUIRES(mu_);
  uint64_t ArenaCompactionsLocked(LoopId loop) const REQUIRES(mu_);

  const Chain* FindChain(LoopId loop, VertexId vertex) const REQUIRES(mu_);
  VersionView ViewOf(const LoopData& data, const VersionEntry& entry) const;
  uint32_t AcquireInput(LoopData& data, const Chain& chain, InputBlob input);
  void ReleaseEntry(LoopData& data, const VersionEntry& entry);
  static void ForgetDirty(LoopData& data, Iteration iteration);
  static void ListPrunable(LoopData& data, Chain& chain);
  void MaybeCompact(LoopData& data);
  void CountVisits(metric::Counter*& counter, const char* name,
                   size_t visited);

  // Driver-set before any concurrent access (SetThreadSafe), then read
  // by every Lock(); not guarded by design — flipping it mid-run is
  // outside the contract.
  bool thread_safe_ = false;
  // Work counters (AttachMetrics; null when detached). Set before any
  // concurrent access like thread_safe_; the handles are interned by
  // CountVisits, which runs under the store lock.
  MetricRegistry* metrics_ = nullptr;
  metric::Counter* flush_visits_ = nullptr;
  metric::Counter* prune_visits_ = nullptr;
  mutable RecursiveMutex mu_;
  std::unordered_map<LoopId, LoopData> loops_ GUARDED_BY(mu_);
};

}  // namespace tornado

#endif  // TORNADO_STORAGE_VERSIONED_STORE_H_
