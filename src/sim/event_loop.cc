#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace tornado {

namespace {
// 4-ary layout: children of i are 4i+1 .. 4i+4. Wider nodes halve the tree
// depth versus a binary heap, and a node's four 16-byte children fill
// exactly one 64-byte cache line.
constexpr size_t kArity = 4;
// Slot indices occupy the low 24 bits of a packed heap key: up to ~16.7M
// *concurrently pending* events (total events are unbounded — slots
// recycle). The remaining 40 bits of insertion sequence allow ~10^12
// events per loop lifetime.
constexpr size_t kMaxSlots = 1u << 24;
}  // namespace

EventId EventLoop::Schedule(double delay, Callback fn) {
  if (delay < 0.0) delay = 0.0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId EventLoop::ScheduleAt(double time, Callback fn) {
  if (time < now_) time = now_;

  uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    TCHECK_LT(slots_.size(), kMaxSlots) << "too many concurrent events";
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.seq = next_seq_++;

  HeapPush(HeapEntry{time, (slot.seq << 24) | index});
  ++live_;
  return (static_cast<uint64_t>(slot.gen) << 32) | index;
}

void EventLoop::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id & 0xFFFFFFFFu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (slot.gen != gen || !slot.fn) return;
  // Eager reclamation: the closure dies now, the slot is immediately
  // reusable, and only the seq-mismatched heap entry lingers.
  slot.fn = nullptr;
  ++slot.gen;
  slot.seq = 0;  // no live seq is ever 0, so the heap entry reads as stale
  free_slots_.push_back(index);
  TCHECK_GT(live_, 0u);
  --live_;
  ++stale_;
  MaybeCompactHeap();
}

void EventLoop::HeapPush(HeapEntry entry) {
  heap_.push_back(entry);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!heap_[i].Before(heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void EventLoop::SiftDown(size_t i) {
  const size_t n = heap_.size();
  for (;;) {
    const size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    size_t best = first_child;
    const size_t last_child = std::min(first_child + kArity, n);
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].Before(heap_[best])) best = c;
    }
    if (!heap_[best].Before(heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

EventLoop::HeapEntry EventLoop::HeapPopTop() {
  const HeapEntry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  return top;
}

void EventLoop::DropStaleTop() {
  while (!heap_.empty() && IsStale(heap_.front())) {
    HeapPopTop();
    TCHECK_GT(stale_, 0u);
    --stale_;
  }
}

void EventLoop::MaybeCompactHeap() {
  // Cancel-heavy workloads (retransmit timers re-armed per ack) would
  // otherwise grow the heap with far-future tombstones until their fire
  // time. When they dominate, filter and re-heapify in one O(n) pass; the
  // (time, seq) total order makes the rebuild trivially order-preserving.
  if (stale_ < 64 || stale_ <= heap_.size() / 2) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) { return IsStale(e); }),
              heap_.end());
  stale_ = 0;
  // Floyd heapify: sift down every internal node, last parent to root.
  if (heap_.size() > 1) {
    for (size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) SiftDown(i);
  }
}

bool EventLoop::FireNext() {
  DropStaleTop();
  if (heap_.empty()) return false;
  const HeapEntry top = HeapPopTop();

  Slot& slot = slots_[top.slot()];
  TCHECK(static_cast<bool>(slot.fn)) << "event without callback";
  Callback fn = std::move(slot.fn);
  slot.fn = nullptr;
  ++slot.gen;  // invalidates the EventId; a later Cancel is a no-op
  slot.seq = 0;
  free_slots_.push_back(top.slot());
  --live_;

  now_ = top.time;
  ++fired_;
  fn();  // may re-enter Schedule/Cancel freely: slab state is consistent
  return true;
}

uint64_t EventLoop::Run() {
  uint64_t n = 0;
  while (!budget_exhausted() && FireNext()) ++n;
  return n;
}

uint64_t EventLoop::RunUntil(double deadline) {
  uint64_t n = 0;
  for (;;) {
    // Peek past cancelled tombstones to find the next real event time.
    DropStaleTop();
    if (heap_.empty() || heap_.front().time > deadline) {
      // Only when every due event has fired may the clock jump to the
      // deadline; a budget break below leaves now_ at the last fired event
      // so the undelivered ones are still in the future, not the past.
      if (now_ < deadline) now_ = deadline;
      return n;
    }
    if (budget_exhausted()) return n;
    if (FireNext()) ++n;
  }
}

bool EventLoop::Step() { return FireNext(); }

}  // namespace tornado
