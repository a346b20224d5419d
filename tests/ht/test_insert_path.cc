// Insertion-engine behaviour: failed-insert invariant, stash visibility
// through every lookup path, rebuild recovery and the empty-key sentinel
// guard.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/cpu_features.h"
#include "ht/cuckoo_table.h"
#include "ht/sharded_table.h"
#include "ht/table_builder.h"
#include "simd/kernel.h"

namespace simdht {
namespace {

// --- failed-insert invariant ------------------------------------------------

// With the stash and rebuild tiers disabled, a failed Insert must leave the
// bucket arena bit-identical (the BFS search is read-only).
TEST(InsertPath, FailedBfsInsertLeavesTableBitIdentical) {
  CuckooTable32 table(2, 1, 256, BucketLayout::kInterleaved, 12);
  table.set_stash_capacity(0);
  table.set_rebuild_enabled(false);

  const auto keys = UniqueRandomKeys<std::uint32_t>(512, 77);
  std::vector<std::uint8_t> snapshot(table.table_bytes());
  std::uint64_t failures = 0;
  for (auto k : keys) {
    const std::uint64_t size_before = table.size();
    std::memcpy(snapshot.data(), table.raw_data(), snapshot.size());
    if (table.Insert(k, k * 3u)) continue;
    ++failures;
    EXPECT_EQ(table.size(), size_before);
    ASSERT_EQ(std::memcmp(snapshot.data(), table.raw_data(),
                          snapshot.size()),
              0)
        << "failed insert mutated the arena";
  }
  // 512 keys into 256 2-way slots guarantees the saturation regime.
  EXPECT_GT(failures, 0u);
}

// --- stash visibility -------------------------------------------------------

// Saturates a (2,1) table (rebuild off) so the overflow stash is
// guaranteed-populated, and returns it plus the landed key set.
CuckooTable32 BuildStashedTable(std::vector<std::uint32_t>* keys) {
  CuckooTable32 table(2, 1, 256, BucketLayout::kInterleaved, 33);
  table.set_rebuild_enabled(false);
  auto result = FillToSaturation(&table, 44);
  *keys = std::move(result.inserted_keys);
  EXPECT_GT(table.stash_count(), 0u);
  return table;
}

TEST(InsertPath, StashedKeysVisibleThroughScalarFind) {
  std::vector<std::uint32_t> keys;
  CuckooTable32 table = BuildStashedTable(&keys);
  for (auto k : keys) {
    std::uint32_t val = 0;
    ASSERT_TRUE(table.Find(k, &val)) << "key " << k;
    EXPECT_EQ(val, (DeriveVal<std::uint32_t, std::uint32_t>(k)));
  }
}

TEST(InsertPath, StashedKeysVisibleThroughEveryKernel) {
  std::vector<std::uint32_t> keys;
  CuckooTable32 table = BuildStashedTable(&keys);
  const TableView view = table.view();
  ASSERT_GT(view.stash_count, 0u);

  for (const KernelInfo& kernel : KernelRegistry::Get().all()) {
    if (!kernel.Matches(table.spec())) continue;
    if (!GetCpuFeatures().Supports(kernel.level)) continue;
    std::vector<std::uint32_t> vals(keys.size(), 0xAA);
    std::vector<std::uint8_t> found(keys.size(), 0xAA);
    const std::uint64_t hits = kernel.Lookup(
        view,
        ProbeBatch::Of(keys.data(), vals.data(), found.data(), keys.size()));
    EXPECT_EQ(hits, keys.size()) << kernel.name;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(found[i]) << kernel.name << " key " << keys[i];
      ASSERT_EQ(vals[i],
                (DeriveVal<std::uint32_t, std::uint32_t>(keys[i])))
          << kernel.name;
    }
  }
}

// The scalar twin's in-loop prefetch (the fused AMAC interleave) runs
// ahead of its compare loop; the stash post-pass must still see every
// stashed key at every distance, including ones past the batch.
TEST(InsertPath, StashedKeysVisibleThroughPipelineAndFusedAmac) {
  std::vector<std::uint32_t> keys;
  CuckooTable32 table = BuildStashedTable(&keys);
  const KernelInfo* scalar = KernelRegistry::Get().Scalar(table.spec());
  ASSERT_NE(scalar, nullptr);

  for (const unsigned d : {0u, 1u, 8u, kProbePrefetchDistance, 4096u}) {
    std::vector<std::uint32_t> vals(keys.size(), 0xAA);
    std::vector<std::uint8_t> found(keys.size(), 0xAA);
    const std::uint64_t hits = scalar->Lookup(
        table.view(), ProbeBatch::Of(keys.data(), vals.data(), found.data(),
                                     keys.size(), d));
    EXPECT_EQ(hits, keys.size()) << "d=" << d;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(found[i]) << "d=" << d << " key " << keys[i];
      ASSERT_EQ(vals[i],
                (DeriveVal<std::uint32_t, std::uint32_t>(keys[i])));
    }
  }
}

TEST(InsertPath, StashCountsTowardSizeButNotCapacity) {
  std::vector<std::uint32_t> keys;
  CuckooTable32 table = BuildStashedTable(&keys);
  EXPECT_EQ(table.size(), keys.size());
  EXPECT_EQ(table.capacity(), 256u);  // buckets x slots; ways don't add
  // Erasing a stashed key shrinks size and makes it unfindable.
  const StashEntry stashed = table.store().stash_at(0);
  ASSERT_NE(stashed.key, 0u);
  const std::uint64_t before = table.size();
  ASSERT_TRUE(table.Erase(static_cast<std::uint32_t>(stashed.key)));
  EXPECT_EQ(table.size(), before - 1);
  EXPECT_FALSE(
      table.Find(static_cast<std::uint32_t>(stashed.key), nullptr));
}

TEST(InsertPath, StashValueCanBeUpdated) {
  std::vector<std::uint32_t> keys;
  CuckooTable32 table = BuildStashedTable(&keys);
  const auto key = static_cast<std::uint32_t>(table.store().stash_at(0).key);
  ASSERT_TRUE(table.UpdateValue(key, 0xDEAD));
  std::uint32_t val = 0;
  ASSERT_TRUE(table.Find(key, &val));
  EXPECT_EQ(val, 0xDEADu);
  // Overwrite through Insert must hit the stash slot, not add an entry.
  const std::uint64_t size = table.size();
  ASSERT_TRUE(table.Insert(key, 0xBEEF));
  EXPECT_EQ(table.size(), size);
  ASSERT_TRUE(table.Find(key, &val));
  EXPECT_EQ(val, 0xBEEFu);
}

// --- rebuild recovery -------------------------------------------------------

TEST(InsertPath, RebuildRecoversWhereWalkAndStashFail) {
  // (2,1) saturation with rebuild enabled: across a small seed set the
  // engine must go through successful reseed-and-rebuild passes (whether a
  // given reseed lands is placement luck, so one seed alone is flaky by
  // construction), and every landed key must still be served correctly
  // afterwards — a rebuild relocates the entire table.
  std::uint64_t total_rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CuckooTable32 table(2, 1, 1024, BucketLayout::kInterleaved, seed);
    auto result = FillToSaturation(&table, seed + 100);
    total_rebuilds += table.insert_stats().rebuilds;
    EXPECT_EQ(table.size(), result.inserted_keys.size());
    for (auto k : result.inserted_keys) {
      std::uint32_t val = 0;
      ASSERT_TRUE(table.Find(k, &val)) << "key " << k << " lost by rebuild";
      EXPECT_EQ(val, (DeriveVal<std::uint32_t, std::uint32_t>(k)));
    }
  }
  EXPECT_GE(total_rebuilds, 1u);
}

TEST(InsertPath, RebuildDisabledFailsSooner) {
  CuckooTable32 with(2, 1, 1024, BucketLayout::kInterleaved, 1);
  CuckooTable32 without(2, 1, 1024, BucketLayout::kInterleaved, 1);
  without.set_rebuild_enabled(false);
  const auto r_with = FillToSaturation(&with, 101);
  const auto r_without = FillToSaturation(&without, 101);
  EXPECT_GE(r_with.inserted_keys.size(), r_without.inserted_keys.size());
  EXPECT_EQ(without.insert_stats().rebuilds, 0u);
}

// --- empty-key sentinel guard ----------------------------------------------

// Key 0 is the empty-slot sentinel: accepting it would fabricate matches in
// every empty slot. The rejection is a runtime check in every build mode,
// and a rejected call must leave the table untouched.
template <typename Table>
void VerifyZeroKeyRejected(Table* table) {
  ASSERT_TRUE(table->Insert(7u, 70u));
  const std::uint64_t size = table->size();

  EXPECT_FALSE(table->Insert(0u, 1u));
  EXPECT_FALSE(table->Find(0u, nullptr));
  EXPECT_FALSE(table->UpdateValue(0u, 2u));
  EXPECT_FALSE(table->Erase(0u));
  EXPECT_EQ(table->size(), size);

  std::uint32_t val = 0;
  ASSERT_TRUE(table->Find(7u, &val));
  EXPECT_EQ(val, 70u);
}

TEST(InsertPath, ZeroKeyRejectedByCuckooTable) {
  CuckooTable32 table(2, 4, 64, BucketLayout::kInterleaved);
  std::vector<std::uint8_t> snapshot(table.table_bytes());
  std::memcpy(snapshot.data(), table.raw_data(), snapshot.size());
  VerifyZeroKeyRejected(&table);
  // The zero-key Insert specifically must not have written bucket bytes
  // anywhere (only key 7's slot may differ from the empty snapshot).
  std::uint32_t diffs = 0;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    diffs += snapshot[i] != table.raw_data()[i];
  }
  EXPECT_LE(diffs, sizeof(std::uint32_t) * 2);
}

TEST(InsertPath, ZeroKeyRejectedByConcurrentTable) {
  ConcurrentCuckooTable<std::uint32_t, std::uint32_t> table(
      2, 4, 64, BucketLayout::kInterleaved);
  VerifyZeroKeyRejected(&table);
}

TEST(InsertPath, ZeroKeyRejectedByShardedTable) {
  ShardedTable<std::uint32_t, std::uint32_t> table(
      4, 2, 4, 256, BucketLayout::kInterleaved);
  VerifyZeroKeyRejected(&table);
}

// --- path search unit behaviour ---------------------------------------------

TEST(InsertPath, FindInsertionPathEndsAtEmptySlot) {
  CuckooTable32 table(2, 1, 64, BucketLayout::kInterleaved, 8);
  table.set_rebuild_enabled(false);
  table.set_stash_capacity(0);
  const auto keys = UniqueRandomKeys<std::uint32_t>(40, 13);
  for (auto k : keys) {
    if (!table.Insert(k, k)) break;
  }
  const auto probe = UniqueRandomKeys<std::uint32_t>(32, 14, &keys);
  std::vector<PathStep> path;
  for (auto k : probe) {
    if (!table.FindInsertionPath(k, &path)) continue;
    ASSERT_FALSE(path.empty());
    // Terminal step must be an empty slot; all earlier steps occupied.
    EXPECT_EQ(table.KeyAt(path.back().bucket, path.back().slot), 0u);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_NE(table.KeyAt(path[i].bucket, path[i].slot), 0u);
    }
  }
}

}  // namespace
}  // namespace simdht
