// Model-based property test of the versioned store: a long random
// operation sequence is mirrored into a trivially-correct reference model
// (map of maps) and both must agree on every read — iteration bytes and
// input blob, which puts draw fresh or reuse from earlier puts — including
// after flush, truncate, prune, fork, merge and drop. They must
// also agree on what Flush and PruneBelow return and on the dirty and
// total version counts after every operation, since the store keeps those
// incrementally rather than by scanning its chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "storage/versioned_store.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

// One version of the model: iteration bytes plus the input blob handle,
// compared by identity (the store must share blobs, never copy them).
struct ModelVersion {
  std::vector<uint8_t> value;
  InputBlob input;
};

class StoreModel {
 public:
  void Put(LoopId loop, VertexId vertex, Iteration iter,
           std::vector<uint8_t> value, InputBlob input) {
    data_[loop][vertex][iter] = {std::move(value), std::move(input)};
  }

  const ModelVersion* Get(LoopId loop, VertexId vertex, Iteration at) const {
    auto l = data_.find(loop);
    if (l == data_.end()) return nullptr;
    auto v = l->second.find(vertex);
    if (v == l->second.end() || v->second.empty()) return nullptr;
    auto it = v->second.upper_bound(at);
    if (it == v->second.begin()) return nullptr;
    return &std::prev(it)->second;
  }

  // Versions that became durable.
  size_t Flush(LoopId loop, Iteration iter) {
    auto l = data_.find(loop);
    if (l == data_.end()) return 0;  // the store flushes no absent loop
    Iteration& durable = durable_[loop];  // stored +1: 0 = never flushed
    if (durable > iter) return 0;
    size_t flushed = 0;
    for (const auto& [vertex, chain] : l->second) {
      for (const auto& [it, version] : chain) {
        if (it <= iter && it >= durable) ++flushed;
      }
    }
    durable = iter + 1;
    return flushed;
  }

  // Versions above the durable watermark.
  size_t DirtyVersions(LoopId loop) const {
    auto l = data_.find(loop);
    if (l == data_.end()) return 0;
    auto d = durable_.find(loop);
    const Iteration durable = d == durable_.end() ? 0 : d->second;
    size_t dirty = 0;
    for (const auto& [vertex, chain] : l->second) {
      for (const auto& [it, version] : chain) dirty += it >= durable ? 1 : 0;
    }
    return dirty;
  }

  size_t TotalVersions() const {
    size_t total = 0;
    for (const auto& [loop, vertices] : data_) {
      for (const auto& [vertex, chain] : vertices) total += chain.size();
    }
    return total;
  }

  void Drop(LoopId loop) {
    data_.erase(loop);
    durable_.erase(loop);
  }

  void TruncateAfter(LoopId loop, Iteration iter) {
    auto d = durable_.find(loop);
    if (d != durable_.end() && d->second > iter + 1) d->second = iter + 1;
    auto l = data_.find(loop);
    if (l == data_.end()) return;
    for (auto& [vertex, chain] : l->second) {
      chain.erase(chain.upper_bound(iter), chain.end());
    }
  }

  // Versions removed.
  size_t PruneBelow(LoopId loop, Iteration iter) {
    auto l = data_.find(loop);
    if (l == data_.end()) return 0;
    size_t removed = 0;
    for (auto& [vertex, chain] : l->second) {
      auto keep = chain.upper_bound(iter);
      if (keep == chain.begin()) continue;
      --keep;
      removed += static_cast<size_t>(std::distance(chain.begin(), keep));
      chain.erase(chain.begin(), keep);
    }
    return removed;
  }

  void Fork(LoopId src, Iteration iter, LoopId dst) {
    auto l = data_.find(src);
    if (l == data_.end()) return;
    for (const auto& [vertex, chain] : l->second) {
      auto it = chain.upper_bound(iter);
      if (it == chain.begin()) continue;
      data_[dst][vertex][0] = std::prev(it)->second;
    }
  }

  void Merge(LoopId src, LoopId dst, Iteration at) {
    auto l = data_.find(src);
    if (l == data_.end()) return;
    for (const auto& [vertex, chain] : l->second) {
      if (chain.empty()) continue;
      data_[dst][vertex][at] = chain.rbegin()->second;
    }
  }

  std::unordered_map<
      LoopId,
      std::unordered_map<VertexId, std::map<Iteration, ModelVersion>>>
      data_;
  std::unordered_map<LoopId, Iteration> durable_;
};

class StoreModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreModelTest, RandomOpsAgreeWithModel) {
  Rng rng(GetParam() * 2654435761ULL);
  VersionedStore store;
  StoreModel model;

  constexpr int kOps = 4000;
  constexpr int kLoops = 3;
  constexpr int kVertices = 24;
  Iteration max_iter[kLoops] = {0, 0, 0};
  std::vector<InputBlob> blobs = {nullptr};  // reuse pool; null = no input

  for (int op = 0; op < kOps; ++op) {
    const auto loop = static_cast<LoopId>(rng.NextUint64(kLoops));
    const auto vertex = static_cast<VertexId>(rng.NextUint64(kVertices));
    switch (rng.NextUint64(100)) {
      default: {  // mostly puts with non-decreasing iterations per loop
        const Iteration iter =
            max_iter[loop] + rng.NextUint64(3);
        max_iter[loop] = std::max(max_iter[loop], iter);
        std::vector<uint8_t> value = {
            static_cast<uint8_t>(rng.NextUint64(256)),
            static_cast<uint8_t>(op & 0xFF)};
        // A third of the puts carry a fresh input blob (an input was
        // gathered); the rest reuse one, or have none.
        InputBlob input;
        if (rng.NextUint64(3) == 0) {
          input = std::make_shared<const std::vector<uint8_t>>(
              1 + rng.NextUint64(64), static_cast<uint8_t>(op));
          blobs.push_back(input);
        } else {
          input = blobs[rng.NextUint64(blobs.size())];
        }
        store.Put(loop, vertex, iter, value, input);
        model.Put(loop, vertex, iter, value, input);
        break;
      }
      case 86:
      case 87: {  // overwrite or insert below the newest version
        const Iteration iter = rng.NextUint64(max_iter[loop] + 1);
        const std::vector<uint8_t> value = {static_cast<uint8_t>(op & 0xFF)};
        const InputBlob input = blobs[rng.NextUint64(blobs.size())];
        store.Put(loop, vertex, iter, value, input);
        model.Put(loop, vertex, iter, value, input);
        break;
      }
      case 88:
      case 89: {  // flush: the return value is the checkpoint's cost
        const Iteration at = rng.NextUint64(max_iter[loop] + 2);
        ASSERT_EQ(store.Flush(loop, at), model.Flush(loop, at))
            << "op " << op << " loop " << loop << " at " << at;
        break;
      }
      case 90:
      case 91: {  // often below the durable watermark
        const Iteration at = rng.NextUint64(max_iter[loop] + 2);
        store.TruncateAfter(loop, at);
        model.TruncateAfter(loop, at);
        break;
      }
      case 92:
      case 93: {
        const Iteration at = rng.NextUint64(max_iter[loop] + 2);
        ASSERT_EQ(store.PruneBelow(loop, at), model.PruneBelow(loop, at))
            << "op " << op << " loop " << loop << " at " << at;
        break;
      }
      case 94: {
        const auto dst = static_cast<LoopId>((loop + 1) % kLoops);
        const Iteration at = rng.NextUint64(max_iter[loop] + 2);
        store.DropLoop(dst);
        model.Drop(dst);
        store.ForkLoop(loop, at, dst);
        model.Fork(loop, at, dst);
        max_iter[dst] = 0;
        break;
      }
      case 95: {
        const auto dst = static_cast<LoopId>((loop + 1) % kLoops);
        const Iteration at = max_iter[dst] + 1 + rng.NextUint64(4);
        max_iter[dst] = at;
        store.MergeLoop(loop, dst, at);
        model.Merge(loop, dst, at);
        break;
      }
      case 96: {
        const Iteration at = rng.NextUint64(max_iter[loop] + 2);
        ASSERT_EQ(store.Flush(loop, at), model.Flush(loop, at))
            << "op " << op << " loop " << loop << " at " << at;
        break;  // durability watermark must not affect reads
      }
      case 98: {
        store.DropLoop(loop);
        model.Drop(loop);
        break;
      }
    }

    ASSERT_EQ(store.TotalVersions(), model.TotalVersions()) << "op " << op;
    for (LoopId l = 0; l < kLoops; ++l) {
      ASSERT_EQ(store.DirtyVersions(l), model.DirtyVersions(l))
          << "op " << op << " loop " << l;
    }

    // Spot-check reads after every mutation.
    for (int check = 0; check < 4; ++check) {
      const auto l = static_cast<LoopId>(rng.NextUint64(kLoops));
      const auto v = static_cast<VertexId>(rng.NextUint64(kVertices));
      const Iteration at = rng.NextUint64(max_iter[l] + 3);
      const VersionView got = store.Get(l, v, at);
      const ModelVersion* want = model.Get(l, v, at);
      ASSERT_EQ(!got, want == nullptr)
          << "op " << op << " loop " << l << " vertex " << v << " at " << at;
      if (want != nullptr) {
        ASSERT_EQ(got.ToVector(), want->value)
            << "op " << op << " loop " << l << " vertex " << v << " at "
            << at;
        ASSERT_EQ(got.input(), want->input)
            << "op " << op << " loop " << l << " vertex " << v << " at "
            << at;
      }
    }
  }

  // Every live blob is counted once, and a blob no version refers to any
  // more has been released by the store.
  size_t live_bytes = 0;
  std::set<const std::vector<uint8_t>*> live_blobs;
  for (const auto& [loop, vertices] : model.data_) {
    for (const auto& [vertex, chain] : vertices) {
      for (const auto& [iter, version] : chain) {
        live_bytes += version.value.size();
        if (version.input != nullptr &&
            live_blobs.insert(version.input.get()).second) {
          live_bytes += version.input->size();
        }
      }
    }
  }
  EXPECT_EQ(store.TotalBytes(), live_bytes);
  for (const InputBlob& blob : blobs) {
    if (blob == nullptr || live_blobs.count(blob.get()) > 0) continue;
    EXPECT_EQ(blob.use_count(), 1) << "the store still holds a dead blob";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace tornado
