#include "storage/versioned_store.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace tornado {

namespace {

bool CoveredBy(Iteration iter, Iteration watermark) {
  return watermark != kNoIteration && iter <= watermark;
}

}  // namespace

void VersionedStore::PutBytesLocked(LoopId loop, VertexId vertex,
                                    Iteration iteration, const uint8_t* data,
                                    size_t size, InputBlob input) {
  LoopData& loop_data = loops_[loop];
  Chain& chain = loop_data.chains[vertex];

  const uint64_t offset = loop_data.arena.size();
  loop_data.arena.insert(loop_data.arena.end(), data, data + size);
  loop_data.live_bytes += size;

  VersionEntry entry;
  entry.iteration = iteration;
  entry.length = static_cast<uint32_t>(size);
  entry.input = AcquireInput(loop_data, chain, std::move(input));
  entry.offset = offset;

  auto& entries = chain.entries;
  if (entries.empty() || entries.back().iteration < iteration) {
    // Hot path: commits arrive in increasing iteration order.
    entries.push_back(entry);
  } else {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), iteration,
        [](const VersionEntry& e, Iteration at) { return e.iteration < at; });
    if (it != entries.end() && it->iteration == iteration) {
      // Overwrite: the new bytes are already in the arena; the old ones
      // become garbage. The argument bytes were consumed before any
      // bookkeeping, so overwrites can never store a moved-from value.
      ReleaseEntry(loop_data, *it);
      it->length = entry.length;
      it->input = entry.input;
      it->offset = entry.offset;
      MaybeCompact(loop_data);
      return;
    }
    entries.insert(it, entry);
  }
  ListPrunable(loop_data, chain);
  if (!CoveredBy(iteration, loop_data.durable)) {
    ++loop_data.dirty;
    ++loop_data.pending[iteration];
  }
}

const VersionedStore::Chain* VersionedStore::FindChain(LoopId loop,
                                                       VertexId vertex) const {
  auto loop_it = loops_.find(loop);
  if (loop_it == loops_.end()) return nullptr;
  auto chain_it = loop_it->second.chains.find(vertex);
  if (chain_it == loop_it->second.chains.end()) return nullptr;
  return &chain_it->second;
}

VersionView VersionedStore::ViewOf(const LoopData& data,
                                   const VersionEntry& entry) const {
  return VersionView(data.arena.data() + entry.offset, entry.length,
                     entry.input == 0 ? nullptr
                                      : data.inputs[entry.input - 1].blob);
}

uint32_t VersionedStore::AcquireInput(LoopData& data, const Chain& chain,
                                      InputBlob input) {
  if (input == nullptr) return 0;
  // A vertex's consecutive versions usually carry the same blob: share the
  // slot of its newest version. Any other put takes a slot of its own
  // (TotalBytes still counts a blob named by two slots once).
  if (!chain.entries.empty()) {
    const uint32_t newest = chain.entries.back().input;
    if (newest != 0 && data.inputs[newest - 1].blob == input) {
      ++data.inputs[newest - 1].refs;
      return newest;
    }
  }
  uint32_t index;
  if (data.free_inputs.empty()) {
    index = static_cast<uint32_t>(data.inputs.size());
    data.inputs.emplace_back();
  } else {
    index = data.free_inputs.back();
    data.free_inputs.pop_back();
  }
  data.inputs[index] = {std::move(input), 1};
  return index + 1;
}

void VersionedStore::ReleaseEntry(LoopData& data, const VersionEntry& entry) {
  TCHECK_GE(data.live_bytes, entry.length);
  data.live_bytes -= entry.length;
  if (entry.input == 0) return;
  InputSlot& slot = data.inputs[entry.input - 1];
  TCHECK_GT(slot.refs, 0u);
  if (--slot.refs == 0) {
    slot.blob.reset();
    data.free_inputs.push_back(entry.input - 1);
  }
}

void VersionedStore::ForgetDirty(LoopData& data, Iteration iteration) {
  if (CoveredBy(iteration, data.durable)) return;
  TCHECK_GT(data.dirty, 0u);
  --data.dirty;
  auto it = data.pending.find(iteration);
  TCHECK(it != data.pending.end());
  if (--it->second == 0) data.pending.erase(it);
}

void VersionedStore::ListPrunable(LoopData& data, Chain& chain) {
  if (chain.entries.size() < 2) return;
  const Iteration key = chain.entries[1].iteration;
  if (key >= chain.listed_at) return;  // listed at or below the key already
  chain.listed_at = key;
  data.prunable[key].push_back(&chain);
}

void VersionedStore::MaybeCompact(LoopData& data) {
  const size_t garbage = data.arena.size() - data.live_bytes;
  if (garbage < 4096 || garbage <= data.live_bytes) return;
  // Rewrite every live payload into a fresh arena. Chain iteration order
  // is untouched; only offsets move, which nothing observable depends on.
  // Input blobs are not in the arena and stay where they are.
  std::vector<uint8_t> compacted;
  compacted.reserve(data.live_bytes);
  for (auto& [vertex, chain] : data.chains) {
    for (VersionEntry& entry : chain.entries) {
      const uint64_t offset = compacted.size();
      compacted.insert(compacted.end(), data.arena.begin() + entry.offset,
                       data.arena.begin() + entry.offset + entry.length);
      entry.offset = offset;
    }
  }
  TCHECK_EQ(compacted.size(), data.live_bytes);
  data.arena = std::move(compacted);
  ++data.compactions;
}

void VersionedStore::CountVisits(metric::Counter*& counter,
                                 const char* name, size_t visited) {
  if (metrics_ == nullptr || visited == 0) return;
  if (counter == nullptr) counter = &metrics_->CounterHandle(name);
  counter->fetch_add(static_cast<int64_t>(visited), std::memory_order_relaxed);
}

VersionView VersionedStore::GetLocked(LoopId loop, VertexId vertex,
                                      Iteration at) const {
  auto loop_it = loops_.find(loop);
  if (loop_it == loops_.end()) return {};
  auto chain_it = loop_it->second.chains.find(vertex);
  if (chain_it == loop_it->second.chains.end()) return {};
  const auto& entries = chain_it->second.entries;
  auto it = std::upper_bound(
      entries.begin(), entries.end(), at,
      [](Iteration at_, const VersionEntry& e) { return at_ < e.iteration; });
  if (it == entries.begin()) return {};
  return ViewOf(loop_it->second, *std::prev(it));
}

Iteration VersionedStore::GetVersionIterationLocked(LoopId loop,
                                                    VertexId vertex,
                                                    Iteration at) const {
  const Chain* chain = FindChain(loop, vertex);
  if (chain == nullptr || chain->entries.empty()) return kNoIteration;
  const auto& entries = chain->entries;
  auto it = std::upper_bound(
      entries.begin(), entries.end(), at,
      [](Iteration at_, const VersionEntry& e) { return at_ < e.iteration; });
  if (it == entries.begin()) return kNoIteration;
  return std::prev(it)->iteration;
}

VersionView VersionedStore::GetLatestLocked(LoopId loop,
                                            VertexId vertex) const {
  auto loop_it = loops_.find(loop);
  if (loop_it == loops_.end()) return {};
  auto chain_it = loop_it->second.chains.find(vertex);
  if (chain_it == loop_it->second.chains.end()) return {};
  const auto& entries = chain_it->second.entries;
  if (entries.empty()) return {};
  return ViewOf(loop_it->second, entries.back());
}

std::vector<VertexId> VersionedStore::VerticesOfLocked(LoopId loop) const {
  std::vector<VertexId> out;
  auto it = loops_.find(loop);
  if (it == loops_.end()) return out;
  out.reserve(it->second.chains.size());
  for (const auto& [vertex, chain] : it->second.chains) {
    if (!chain.entries.empty()) out.push_back(vertex);
  }
  // Sorted listing: callers (fork/restart loading) drive prepare rounds in
  // this order, so it must not depend on hash-table layout.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VertexId> VersionedStore::VerticesWithVersionAtLocked(
    LoopId loop, Iteration iteration) const {
  std::vector<VertexId> out;
  auto it = loops_.find(loop);
  if (it == loops_.end()) return out;
  for (const auto& [vertex, chain] : it->second.chains) {
    const auto& entries = chain.entries;
    auto pos = std::lower_bound(
        entries.begin(), entries.end(), iteration,
        [](const VersionEntry& e, Iteration at) { return e.iteration < at; });
    if (pos != entries.end() && pos->iteration == iteration) {
      out.push_back(vertex);
    }
  }
  std::sort(out.begin(), out.end());  // deterministic adoption order
  return out;
}

size_t VersionedStore::VersionCountLocked(LoopId loop, VertexId vertex) const {
  const Chain* chain = FindChain(loop, vertex);
  return chain == nullptr ? 0 : chain->entries.size();
}

size_t VersionedStore::FlushLocked(LoopId loop, Iteration iteration) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return 0;
  LoopData& data = it->second;
  if (CoveredBy(iteration, data.durable)) return 0;

  size_t flushed = 0;
  size_t visited = 0;
  const auto end = data.pending.upper_bound(iteration);
  for (auto p = data.pending.begin(); p != end; ++p, ++visited) {
    flushed += p->second;
  }
  data.pending.erase(data.pending.begin(), end);
#ifdef TORNADO_CHECK
  // The full scan the per-iteration counts replace.
  size_t scanned = 0;
  for (const auto& [vertex, chain] : data.chains) {
    for (const VersionEntry& entry : chain.entries) {
      if (entry.iteration > iteration) break;
      if (!CoveredBy(entry.iteration, data.durable)) ++scanned;
    }
  }
  TCHECK_EQ(scanned, flushed) << "pending counts diverged from the chains";
#endif
  data.durable = iteration;
  TCHECK_GE(data.dirty, flushed);
  data.dirty -= flushed;
  CountVisits(flush_visits_, metric::kFlushEntriesVisited, visited);
  return flushed;
}

size_t VersionedStore::DirtyVersionsLocked(LoopId loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? 0 : it->second.dirty;
}

Iteration VersionedStore::DurableIterationLocked(LoopId loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? kNoIteration : it->second.durable;
}

void VersionedStore::TruncateAfterLocked(LoopId loop, Iteration iteration) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return;
  LoopData& data = it->second;
  for (auto& [vertex, chain] : data.chains) {
    auto& entries = chain.entries;
    auto first_gone = std::upper_bound(
        entries.begin(), entries.end(), iteration,
        [](Iteration at, const VersionEntry& e) { return at < e.iteration; });
    for (auto v = first_gone; v != entries.end(); ++v) {
      ForgetDirty(data, v->iteration);
      ReleaseEntry(data, *v);
    }
    entries.erase(first_gone, entries.end());
  }
  if (data.durable != kNoIteration && data.durable > iteration) {
    data.durable = iteration;
  }
  MaybeCompact(data);
}

size_t VersionedStore::PruneBelowLocked(LoopId loop, Iteration iteration) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return 0;
  LoopData& data = it->second;
#ifdef TORNADO_CHECK
  // The full scan this listing replaces: every version below the newest
  // one at or below `iteration`.
  size_t prunable = 0;
  for (const auto& [vertex, chain] : data.chains) {
    const auto& entries = chain.entries;
    const auto at_or_below = std::upper_bound(
        entries.begin(), entries.end(), iteration,
        [](Iteration at, const VersionEntry& e) { return at < e.iteration; });
    if (at_or_below - entries.begin() > 1) {
      prunable += static_cast<size_t>(at_or_below - entries.begin()) - 1;
    }
  }
#endif
  size_t visited = 0;
  size_t removed = 0;
  while (!data.prunable.empty() && data.prunable.begin()->first <= iteration) {
    const Iteration key = data.prunable.begin()->first;
    const std::vector<Chain*> listed =
        std::move(data.prunable.begin()->second);
    data.prunable.erase(data.prunable.begin());
    visited += listed.size();
    for (Chain* chain : listed) {
      if (chain->listed_at != key) continue;  // stale listing
      chain->listed_at = kNoIteration;
      auto& entries = chain->entries;
      auto keep = std::upper_bound(
          entries.begin(), entries.end(), iteration,
          [](Iteration at, const VersionEntry& e) { return at < e.iteration; });
      if (keep != entries.begin()) {
        --keep;  // newest version <= iteration stays: the snapshot base
        for (auto v = entries.begin(); v != keep; ++v) {
          ForgetDirty(data, v->iteration);
          ReleaseEntry(data, *v);
          ++removed;
        }
        entries.erase(entries.begin(), keep);
      }
      ListPrunable(data, *chain);  // under a key above `iteration`
    }
  }
#ifdef TORNADO_CHECK
  TCHECK_EQ(prunable, removed) << "a prunable chain was not listed";
#endif
  CountVisits(prune_visits_, metric::kPruneChainsVisited, visited);
  MaybeCompact(data);
  return removed;
}

void VersionedStore::RecoverToDurableLocked(LoopId loop) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return;
  const Iteration watermark = it->second.durable;
  if (watermark == kNoIteration) {
    loops_.erase(it);
    return;
  }
  TruncateAfterLocked(loop, watermark);
}

void VersionedStore::DropLoopLocked(LoopId loop) { loops_.erase(loop); }

size_t VersionedStore::ForkLoopLocked(LoopId src, Iteration iteration,
                                      LoopId dst) {
  auto src_it = loops_.find(src);
  if (src_it == loops_.end()) return 0;
  TCHECK_NE(src, dst);
  // Snapshot (vertex, arena pointer) pairs first: creating dst below may
  // rehash loops_, but the src arena's heap buffer does not move, so the
  // collected views stay valid. Puts target dst's arena only (src != dst).
  std::vector<std::pair<VertexId, VersionView>> snapshot;
  snapshot.reserve(src_it->second.chains.size());
  for (const auto& [vertex, chain] : src_it->second.chains) {
    const auto& entries = chain.entries;
    auto v = std::upper_bound(
        entries.begin(), entries.end(), iteration,
        [](Iteration at, const VersionEntry& e) { return at < e.iteration; });
    if (v == entries.begin()) continue;
    snapshot.emplace_back(vertex, ViewOf(src_it->second, *std::prev(v)));
  }
  for (const auto& [vertex, view] : snapshot) {
    PutBytesLocked(dst, vertex, 0, view.data(), view.size(), view.input());
  }
  return snapshot.size();
}

size_t VersionedStore::MergeLoopLocked(LoopId src, LoopId dst,
                                       Iteration dst_iteration) {
  auto src_it = loops_.find(src);
  if (src_it == loops_.end()) return 0;
  TCHECK_NE(src, dst);
  std::vector<std::pair<VertexId, VersionView>> latest;
  latest.reserve(src_it->second.chains.size());
  for (const auto& [vertex, chain] : src_it->second.chains) {
    if (chain.entries.empty()) continue;
    latest.emplace_back(vertex, ViewOf(src_it->second, chain.entries.back()));
  }
  for (const auto& [vertex, view] : latest) {
    PutBytesLocked(dst, vertex, dst_iteration, view.data(), view.size(),
                   view.input());
  }
  return latest.size();
}

size_t VersionedStore::TotalVersionsLocked() const {
  size_t n = 0;
  for (const auto& [loop, data] : loops_) {
    for (const auto& [vertex, chain] : data.chains) n += chain.entries.size();
  }
  return n;
}

size_t VersionedStore::TotalBytesLocked() const {
  size_t n = 0;
  std::vector<const std::vector<uint8_t>*> blobs;
  for (const auto& [loop, data] : loops_) {
    n += data.live_bytes;
    for (const InputSlot& slot : data.inputs) {
      if (slot.blob != nullptr) blobs.push_back(slot.blob.get());
    }
  }
  // Shared blobs count once. Sorting by address only groups duplicates;
  // the sum does not depend on the order.
  std::sort(blobs.begin(), blobs.end());
  blobs.erase(std::unique(blobs.begin(), blobs.end()), blobs.end());
  for (const std::vector<uint8_t>* blob : blobs) n += blob->size();
  return n;
}

size_t VersionedStore::ArenaBytesLocked(LoopId loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? 0 : it->second.arena.size();
}

uint64_t VersionedStore::ArenaCompactionsLocked(LoopId loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? 0 : it->second.compactions;
}

}  // namespace tornado
