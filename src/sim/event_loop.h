#ifndef TORNADO_SIM_EVENT_LOOP_H_
#define TORNADO_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <vector>

#include "common/inline_fn.h"

namespace tornado {

/// Identifies a scheduled event so it can be cancelled. Encodes a slab
/// slot index (low 32 bits) and that slot's generation at scheduling time
/// (high 32 bits); a stale id — already fired, already cancelled, or from
/// a recycled slot — simply fails the generation check, so Cancel needs no
/// lookup structure. Id 0 is never issued (generations start at 1) and is
/// safe to use as a "no event" sentinel.
using EventId = uint64_t;

/// Deterministic discrete-event loop with a virtual clock (seconds).
///
/// The simulated cluster — processors, master, ingesters, the network —
/// runs entirely on this loop. Determinism comes from (time, insertion
/// sequence) ordering: two events at the same virtual time fire in the
/// order they were scheduled, so a fixed RNG seed yields a bit-identical
/// execution, which the tests rely on.
///
/// Implementation: a free-listed slot slab holds the callbacks, and a
/// 4-ary min-heap of (time, seq) entries orders them. Scheduling reuses a
/// free slot (no per-event map nodes), Cancel is an O(1) generation bump
/// that eagerly releases the callback and returns the slot to the free
/// list, and firing lazily skips heap entries whose generation no longer
/// matches. Steady state allocates nothing: slots, heap storage, and the
/// free list are all recycled vectors, and callbacks up to 64 capture
/// bytes live inline in their slot.
class EventLoop {
 public:
  using Callback = InlineFn<64>;

  /// Schedules `fn` to run `delay` seconds from now. Negative delays clamp
  /// to zero (fire "immediately", after already-queued same-time events).
  EventId Schedule(double delay, Callback fn);

  /// Schedules `fn` at an absolute virtual time (clamped to >= now).
  EventId ScheduleAt(double time, Callback fn);

  /// Cancels a pending event. Cancelling an already-fired or unknown event
  /// is a no-op. The callback is destroyed and its slot reclaimed
  /// immediately; only a 16-byte heap entry lingers until its fire time
  /// (and even those are compacted away when they dominate the heap).
  void Cancel(EventId id);

  /// Runs events until the queue drains. Returns the number of events fired.
  uint64_t Run();

  /// Runs events with time <= `deadline`; the clock then advances to
  /// `deadline` (if it was behind). If the event budget runs out while
  /// events are still due before the deadline, the clock stays at the last
  /// fired event so the undelivered events remain in the future. Returns
  /// the number of events fired.
  uint64_t RunUntil(double deadline);

  /// Fires the single next event. Returns false if the queue is empty.
  bool Step();

  double now() const { return now_; }
  bool empty() const { return live_ == 0; }
  size_t pending() const { return live_; }

  /// Hard cap on total events fired by Run()/RunUntil(); guards against
  /// runaway retransmission loops in failure tests. 0 = unlimited.
  void set_event_budget(uint64_t budget) { event_budget_ = budget; }
  bool budget_exhausted() const {
    return event_budget_ != 0 && fired_ >= event_budget_;
  }

  /// Introspection for tests and the perf harness: total slots ever
  /// created (the slab's high-water mark of concurrently live events) and
  /// the physical heap length including not-yet-skipped tombstones.
  size_t slot_capacity() const { return slots_.size(); }
  size_t heap_size() const { return heap_.size(); }

 private:
  struct Slot {
    Callback fn;
    uint32_t gen = 1;   // bumped on fire and on cancel; 0 is never live
    uint64_t seq = 0;   // seq of the currently scheduled event; 0 = none
  };

  // 16 bytes: the global monotone insertion counter `seq` (slot indices
  // are recycled, so they cannot serve as the tie-breaker the way the old
  // monotone EventIds did) and the slot index share one word, seq in the
  // high 40 bits. Seqs are unique, so comparing the packed key compares
  // seqs — same-time events fire in schedule order — and four 16-byte
  // children span exactly one cache line.
  struct HeapEntry {
    double time;
    uint64_t key;  // (seq << 24) | slot

    uint32_t slot() const { return static_cast<uint32_t>(key & 0xFFFFFF); }
    uint64_t seq() const { return key >> 24; }
    bool Before(const HeapEntry& other) const {
      if (time != other.time) return time < other.time;
      return key < other.key;
    }
  };

  bool FireNext();
  void HeapPush(HeapEntry entry);
  void SiftDown(size_t i);
  HeapEntry HeapPopTop();
  void DropStaleTop();
  bool IsStale(const HeapEntry& e) const {
    return slots_[e.slot()].seq != e.seq();
  }
  void MaybeCompactHeap();

  double now_ = 0.0;
  uint64_t next_seq_ = 1;
  uint64_t fired_ = 0;
  uint64_t event_budget_ = 0;
  size_t live_ = 0;   // scheduled and not yet fired/cancelled
  size_t stale_ = 0;  // cancelled entries still physically in the heap
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace tornado

#endif  // TORNADO_SIM_EVENT_LOOP_H_
