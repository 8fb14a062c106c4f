// Unit tests for the versioned store and the on-disk checkpoint log.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "storage/checkpoint_log.h"
#include "storage/durable_store.h"
#include "storage/versioned_store.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> v) { return v; }

InputBlob Blob(size_t size, uint8_t fill) {
  return std::make_shared<const std::vector<uint8_t>>(size, fill);
}

TEST(VersionedStoreTest, SnapshotReadsLatestAtOrBelow) {
  VersionedStore store;
  store.Put(0, 7, 1, Bytes({1}));
  store.Put(0, 7, 5, Bytes({5}));
  store.Put(0, 7, 9, Bytes({9}));

  EXPECT_FALSE(store.Get(0, 7, 0));
  EXPECT_EQ(store.Get(0, 7, 1)[0], 1);
  EXPECT_EQ(store.Get(0, 7, 4)[0], 1);
  EXPECT_EQ(store.Get(0, 7, 5)[0], 5);
  EXPECT_EQ(store.Get(0, 7, 100)[0], 9);
  EXPECT_EQ(store.GetLatest(0, 7)[0], 9);
  EXPECT_EQ(store.GetVersionIteration(0, 7, 7), 5u);
  EXPECT_EQ(store.GetVersionIteration(0, 7, 0), kNoIteration);
}

TEST(VersionedStoreTest, OverwriteSameIteration) {
  VersionedStore store;
  store.Put(0, 1, 3, Bytes({1}));
  store.Put(0, 1, 3, Bytes({2}));
  EXPECT_EQ(store.VersionCount(0, 1), 1u);
  EXPECT_EQ(store.Get(0, 1, 3)[0], 2);
}

TEST(VersionedStoreTest, FlushTracksDurabilityAndDirtyCount) {
  VersionedStore store;
  store.Put(0, 1, 1, Bytes({1}));
  store.Put(0, 2, 2, Bytes({2}));
  store.Put(0, 3, 7, Bytes({7}));
  EXPECT_EQ(store.DirtyVersions(0), 3u);
  EXPECT_EQ(store.Flush(0, 2), 2u);
  EXPECT_EQ(store.DirtyVersions(0), 1u);
  EXPECT_EQ(store.DurableIteration(0), 2u);
  // Flushing below the watermark is a no-op.
  EXPECT_EQ(store.Flush(0, 1), 0u);
  EXPECT_EQ(store.Flush(0, 10), 1u);
  EXPECT_EQ(store.DirtyVersions(0), 0u);
}

TEST(VersionedStoreTest, TruncateAfterDropsNewerVersions) {
  VersionedStore store;
  for (Iteration i = 1; i <= 5; ++i) {
    store.Put(0, 1, i, Bytes({static_cast<uint8_t>(i)}));
  }
  store.TruncateAfter(0, 3);
  EXPECT_EQ(store.VersionCount(0, 1), 3u);
  EXPECT_EQ(store.GetLatest(0, 1)[0], 3);
}

TEST(VersionedStoreTest, RecoverToDurableDropsUnflushed) {
  VersionedStore store;
  store.Put(0, 1, 1, Bytes({1}));
  store.Flush(0, 1);
  store.Put(0, 1, 2, Bytes({2}));
  store.RecoverToDurable(0);
  EXPECT_EQ(store.GetLatest(0, 1)[0], 1);

  // A never-flushed loop disappears entirely.
  store.Put(9, 1, 1, Bytes({1}));
  store.RecoverToDurable(9);
  EXPECT_FALSE(store.GetLatest(9, 1));
}

TEST(VersionedStoreTest, PruneBelowKeepsSnapshotBase) {
  VersionedStore store;
  for (Iteration i = 1; i <= 6; ++i) {
    store.Put(0, 1, i, Bytes({static_cast<uint8_t>(i)}));
  }
  EXPECT_EQ(store.PruneBelow(0, 4), 3u);  // versions 1,2,3 dropped; 4 kept
  EXPECT_EQ(store.Get(0, 1, 4)[0], 4);
  EXPECT_FALSE(store.Get(0, 1, 3));
  EXPECT_EQ(store.GetLatest(0, 1)[0], 6);
}

TEST(VersionedStoreTest, ForkCopiesSnapshotIntoBranch) {
  VersionedStore store;
  store.Put(0, 1, 2, Bytes({2}));
  store.Put(0, 1, 8, Bytes({8}));
  store.Put(0, 2, 3, Bytes({3}));
  EXPECT_EQ(store.ForkLoop(0, 5, 1), 2u);
  EXPECT_EQ(store.Get(1, 1, 0)[0], 2);  // not the iteration-8 version
  EXPECT_EQ(store.Get(1, 2, 0)[0], 3);
}

TEST(VersionedStoreTest, MergeWritesLatestAtIteration) {
  VersionedStore store;
  store.Put(1, 1, 4, Bytes({44}));
  store.Put(0, 1, 2, Bytes({2}));
  EXPECT_EQ(store.MergeLoop(1, 0, 10), 1u);
  EXPECT_EQ(store.Get(0, 1, 10)[0], 44);
  EXPECT_EQ(store.Get(0, 1, 9)[0], 2);
}

TEST(VersionedStoreTest, VerticesWithVersionAt) {
  VersionedStore store;
  store.Put(0, 1, 5, Bytes({1}));
  store.Put(0, 2, 6, Bytes({2}));
  const auto at5 = store.VerticesWithVersionAt(0, 5);
  ASSERT_EQ(at5.size(), 1u);
  EXPECT_EQ(at5[0], 1u);
}

TEST(VersionedStoreTest, DropLoopRemovesEverything) {
  VersionedStore store;
  store.Put(3, 1, 1, Bytes({1}));
  store.DropLoop(3);
  EXPECT_TRUE(store.VerticesOf(3).empty());
}

TEST(VersionedStoreTest, AccountingTotals) {
  VersionedStore store;
  store.Put(0, 1, 1, Bytes({1, 2, 3}));
  store.Put(0, 2, 1, Bytes({4}));
  EXPECT_EQ(store.TotalVersions(), 2u);
  EXPECT_EQ(store.TotalBytes(), 4u);
}

TEST(VersionedStoreTest, OverwriteStoresTheNewBytes) {
  // Regression: the old map-based Put moved the value into an emplace probe
  // and could write a moved-from (empty) vector on the overwrite path,
  // depending on the stdlib's emplace key-extraction behavior. The arena
  // design consumes the argument bytes before any bookkeeping, so the
  // overwritten version must always carry the new payload.
  VersionedStore store;
  store.Put(0, 1, 3, Bytes({1, 2, 3, 4}));
  store.Put(0, 1, 3, Bytes({9, 8, 7}));
  const VersionView got = store.Get(0, 1, 3);
  ASSERT_TRUE(got);
  EXPECT_EQ(got.ToVector(), Bytes({9, 8, 7}));
  EXPECT_EQ(store.VersionCount(0, 1), 1u);
  EXPECT_EQ(store.TotalBytes(), 3u);  // the old 4 bytes are garbage now
}

// ---------------------------------------------------------------------------
// Input blobs (the loop-invariant input part of a vertex state)
// ---------------------------------------------------------------------------

TEST(VersionedStoreTest, ForkAndMergeShareOneInputBlob) {
  VersionedStore store;
  const InputBlob blob = Blob(1000, 7);
  store.Put(0, 1, 2, Bytes({1, 2}), blob);
  store.Put(0, 1, 3, Bytes({3, 4}), blob);  // a commit that gathered no input
  ASSERT_EQ(store.ForkLoop(0, 3, 5), 1u);
  store.Put(5, 1, 1, Bytes({5, 6}), store.Get(5, 1, 0).input());
  ASSERT_EQ(store.MergeLoop(5, 0, 9), 1u);

  for (const auto& [loop, at] : {std::pair<LoopId, Iteration>{0, 2},
                                 {0, 3}, {5, 0}, {5, 1}, {0, 9}}) {
    EXPECT_EQ(store.Get(loop, 1, at).input(), blob)
        << "loop " << loop << " at " << at;
  }
  EXPECT_EQ(store.Get(0, 1, 9).ToVector(), Bytes({5, 6}));
  // Five versions of 2 iteration bytes each, plus the blob once; the
  // arenas hold iteration bytes only.
  EXPECT_EQ(store.TotalVersions(), 5u);
  EXPECT_EQ(store.TotalBytes(), 5u * 2u + 1000u);
  EXPECT_EQ(store.ArenaBytes(0) + store.ArenaBytes(5), 5u * 2u);
}

TEST(VersionedStoreTest, DroppingTheLastReferenceFreesTheBlob) {
  VersionedStore store;
  std::weak_ptr<const std::vector<uint8_t>> watch;
  {
    const InputBlob blob = Blob(64, 1);
    watch = blob;
    store.Put(0, 1, 1, Bytes({1}), blob);
    store.Put(0, 1, 2, Bytes({2}), blob);
  }
  store.ForkLoop(0, 2, 3);
  store.Put(0, 1, 4, Bytes({4}), Blob(64, 2));  // a newer input part

  store.PruneBelow(0, 4);  // the main loop lets go of both old versions
  EXPECT_FALSE(watch.expired()) << "the branch still refers to it";
  EXPECT_EQ(store.TotalBytes(), 2u + 128u);
  store.DropLoop(3);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(store.TotalBytes(), 1u + 64u);
}

TEST(VersionedStoreTest, TruncateRecoverAndOverwriteReleaseBlobs) {
  VersionedStore store;
  std::weak_ptr<const std::vector<uint8_t>> truncated, recovered, overwritten;
  {
    const InputBlob a = Blob(8, 1), b = Blob(8, 2), c = Blob(8, 3);
    truncated = a;
    recovered = b;
    overwritten = c;
    store.Put(0, 1, 1, Bytes({1}), c);
    store.Put(0, 1, 1, Bytes({1}), nullptr);  // overwrite, no input part
    store.Flush(0, 1);
    store.Put(0, 1, 2, Bytes({2}), b);
    store.Put(0, 2, 5, Bytes({5}), a);
  }
  EXPECT_TRUE(overwritten.expired());
  EXPECT_FALSE(store.Get(0, 1, 1).input());
  store.TruncateAfter(0, 4);
  EXPECT_TRUE(truncated.expired());
  store.RecoverToDurable(0);
  EXPECT_TRUE(recovered.expired());
  EXPECT_EQ(store.TotalBytes(), 1u);
}

TEST(VersionedStoreTest, PruneBelowBetweenVersionsKeepsNewestAtOrBelow) {
  // The fork point (iteration 7) falls between versions 5 and 9: exactly
  // the newest version <= 7 must survive as the snapshot base.
  VersionedStore store;
  store.Put(0, 1, 2, Bytes({2}));
  store.Put(0, 1, 5, Bytes({5}));
  store.Put(0, 1, 9, Bytes({9}));
  EXPECT_EQ(store.PruneBelow(0, 7), 1u);  // only version 2 drops
  EXPECT_FALSE(store.Get(0, 1, 4));
  EXPECT_EQ(store.Get(0, 1, 7)[0], 5);
  EXPECT_EQ(store.GetVersionIteration(0, 1, 7), 5u);
  EXPECT_EQ(store.VersionCount(0, 1), 2u);
}

TEST(VersionedStoreTest, TruncateAfterRestoresDirtyAcrossDurableWatermark) {
  VersionedStore store;
  store.Put(0, 1, 1, Bytes({1}));
  store.Put(0, 1, 2, Bytes({2}));
  store.Flush(0, 2);
  store.Put(0, 1, 3, Bytes({3}));
  store.Put(0, 1, 4, Bytes({4}));
  EXPECT_EQ(store.DirtyVersions(0), 2u);

  // Dropping one dirty version restores the pending-I/O count.
  store.TruncateAfter(0, 3);
  EXPECT_EQ(store.DirtyVersions(0), 1u);
  EXPECT_EQ(store.DurableIteration(0), 2u);

  // Truncating below the watermark drops the remaining dirty version and a
  // durable one: dirty hits zero (not negative) and the watermark follows
  // the truncation point down.
  store.TruncateAfter(0, 1);
  EXPECT_EQ(store.DirtyVersions(0), 0u);
  EXPECT_EQ(store.DurableIteration(0), 1u);
  EXPECT_EQ(store.GetLatest(0, 1)[0], 1);

  // A re-put above the lowered watermark counts as dirty again.
  store.Put(0, 1, 2, Bytes({22}));
  EXPECT_EQ(store.DirtyVersions(0), 1u);
}

TEST(VersionedStoreTest, FlushAndPruneVisitOnlyWhatTheyChange) {
  // 100 single-version chains plus one chain with versions at 3, 5 and 8.
  MetricRegistry metrics;
  VersionedStore store;
  store.AttachMetrics(&metrics);
  for (VertexId v = 0; v < 100; ++v) store.Put(0, v, 1, Bytes({1}));
  for (Iteration i : {3, 5, 8}) store.Put(0, 100, i, Bytes({2}));

  // Flush sums the per-iteration counts at or below its watermark:
  // iterations 1, 3 and 5, not 101 chains.
  EXPECT_EQ(store.Flush(0, 5), 102u);
  EXPECT_EQ(metrics.Get(metric::kFlushEntriesVisited), 3);
  EXPECT_EQ(store.DirtyVersions(0), 1u);

  // A prune below the multi-version chain's second version visits nothing;
  // one at or above it visits that chain only.
  EXPECT_EQ(store.PruneBelow(0, 4), 0u);
  EXPECT_EQ(metrics.Get(metric::kPruneChainsVisited), 0);
  EXPECT_EQ(store.PruneBelow(0, 6), 1u);
  EXPECT_EQ(metrics.Get(metric::kPruneChainsVisited), 1);
  // Relisted under its new second version (8).
  EXPECT_EQ(store.PruneBelow(0, 7), 0u);
  EXPECT_EQ(metrics.Get(metric::kPruneChainsVisited), 1);
  EXPECT_EQ(store.PruneBelow(0, 8), 1u);
  EXPECT_EQ(metrics.Get(metric::kPruneChainsVisited), 2);
  EXPECT_EQ(store.TotalVersions(), 101u);
}

TEST(VersionedStoreTest, ForkMergeRoundTripSurvivesArenaCompaction) {
  VersionedStore store;
  // 50 versions x 256 bytes; pruning 49 of them leaves ~12.5 KiB of
  // garbage against ~0.5 KiB live — well past the compaction trigger.
  for (Iteration i = 1; i <= 50; ++i) {
    store.Put(0, 1, i, std::vector<uint8_t>(256, static_cast<uint8_t>(i)));
  }
  store.Put(0, 2, 10, Bytes({42}));
  EXPECT_EQ(store.ArenaCompactions(0), 0u);
  EXPECT_EQ(store.PruneBelow(0, 50), 49u);
  EXPECT_GE(store.ArenaCompactions(0), 1u);
  // The compacted arena holds exactly the live bytes.
  EXPECT_EQ(store.ArenaBytes(0), 256u + 1u);

  // Reads after compaction see the surviving payloads at their new offsets.
  const VersionView kept = store.GetLatest(0, 1);
  ASSERT_TRUE(kept);
  ASSERT_EQ(kept.size(), 256u);
  EXPECT_EQ(kept[0], 50);

  // Fork out of the compacted arena, then merge back into a third loop:
  // payload bytes must round-trip across both arena copies.
  EXPECT_EQ(store.ForkLoop(0, 50, 1), 2u);
  EXPECT_EQ(store.Get(1, 1, 0).ToVector(),
            std::vector<uint8_t>(256, uint8_t{50}));
  EXPECT_EQ(store.Get(1, 2, 0)[0], 42);
  EXPECT_EQ(store.MergeLoop(1, 2, 7), 2u);
  EXPECT_EQ(store.Get(2, 1, 7).ToVector(),
            std::vector<uint8_t>(256, uint8_t{50}));
  EXPECT_EQ(store.Get(2, 2, 7)[0], 42);
}

// ---------------------------------------------------------------------------
// CheckpointLog
// ---------------------------------------------------------------------------

class CheckpointLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/tornado_ckpt_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CheckpointLogTest, AppendAndReplay) {
  {
    CheckpointLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(0, 1, 2, Bytes({9, 9})).ok());
    ASSERT_TRUE(log.Append(0, 1, 5, Bytes({5})).ok());
    ASSERT_TRUE(log.Append(1, 7, 1, Bytes({7})).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  VersionedStore store;
  CheckpointLog reader;
  auto applied = reader.Replay(path_, &store);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 3u);
  EXPECT_EQ(store.Get(0, 1, 2)[0], 9);
  EXPECT_EQ(store.GetLatest(0, 1)[0], 5);
  EXPECT_EQ(store.GetLatest(1, 7)[0], 7);
}

TEST_F(CheckpointLogTest, ReplaysBothStateParts) {
  const std::vector<uint8_t> input(300, 4);
  {
    CheckpointLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(0, 1, 2, Bytes({9}).data(), 1, &input).ok());
    ASSERT_TRUE(log.Append(0, 2, 2, Bytes({8})).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  VersionedStore store;
  CheckpointLog reader;
  auto applied = reader.Replay(path_, &store);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
  const VersionView with_input = store.GetLatest(0, 1);
  EXPECT_EQ(with_input.ToVector(), Bytes({9}));
  ASSERT_NE(with_input.input(), nullptr);
  EXPECT_EQ(*with_input.input(), input);
  EXPECT_EQ(store.GetLatest(0, 2).input(), nullptr);
}

TEST_F(CheckpointLogTest, DurableStoreFlushesAndReopensBothParts) {
  const InputBlob input = Blob(40, 6);
  {
    DurableStore durable;
    ASSERT_TRUE(durable.Open(path_).ok());
    durable.Put(0, 1, 1, Bytes({1}), input);
    durable.Put(0, 1, 2, Bytes({2}), input);
    ASSERT_TRUE(durable.Flush(0, 2).ok());
    ASSERT_TRUE(durable.Close().ok());
  }
  DurableStore reopened;
  ASSERT_TRUE(reopened.Open(path_).ok());
  for (Iteration at : {1u, 2u}) {
    const VersionView got = reopened.store().Get(0, 1, at);
    ASSERT_TRUE(got);
    EXPECT_EQ(got[0], at);
    ASSERT_NE(got.input(), nullptr);
    EXPECT_EQ(*got.input(), *input);
  }
  ASSERT_TRUE(reopened.Close().ok());
}

TEST_F(CheckpointLogTest, TornTailIsIgnored) {
  {
    CheckpointLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(0, 1, 1, Bytes({1})).ok());
    ASSERT_TRUE(log.Append(0, 2, 1, Bytes({2})).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  // Corrupt the tail: truncate the last 3 bytes (mid-CRC).
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(std::fclose(f), 0);
  ASSERT_EQ(truncate(path_.c_str(), size - 3), 0);

  VersionedStore store;
  CheckpointLog reader;
  auto applied = reader.Replay(path_, &store);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);  // only the intact first record
  EXPECT_TRUE(store.GetLatest(0, 1));
  EXPECT_FALSE(store.GetLatest(0, 2));
}

TEST_F(CheckpointLogTest, ReplayMissingFileIsNotFound) {
  VersionedStore store;
  CheckpointLog reader;
  auto applied = reader.Replay(path_ + ".nope", &store);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tornado
