// ShardedTable: routing, seed derivation, the 1-shard == unsharded
// bit-for-bit guarantee, and erase-vs-batched-lookup races.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "ht/sharded_table.h"
#include "ht/table_builder.h"
#include "simd/kernel.h"

namespace simdht {
namespace {

// Any batch-capable kernel for the layout (prefers SIMD, falls back to the
// scalar twin so the test runs on every CPU).
const KernelInfo* PickKernel(const LayoutSpec& spec) {
  const Approach approach =
      spec.bucketized() ? Approach::kHorizontal : Approach::kVertical;
  const KernelInfo* kernel = nullptr;
  for (const KernelInfo* k :
       KernelRegistry::Get().Find(KernelQuery{spec, approach})) {
    kernel = k;
  }
  return kernel != nullptr ? kernel : KernelRegistry::Get().Scalar(spec);
}

TEST(ShardedTable, ShardSeedDerivation) {
  // Shard 0 keeps the table seed verbatim — that is what makes a 1-shard
  // table hash-identical to an unsharded one.
  EXPECT_EQ(ShardSeedFor(42, 0), 42u);
  EXPECT_EQ(ShardSeedFor(0, 0), 0u);
  EXPECT_NE(ShardSeedFor(42, 1), 42u);
  EXPECT_NE(ShardSeedFor(42, 1), ShardSeedFor(42, 2));
  EXPECT_EQ(ShardSeedFor(42, 3), ShardSeedFor(42, 3));  // deterministic
}

TEST(ShardedTable, RouterCoversAllShardsUniformly) {
  const unsigned shards = 5;  // deliberately not a power of two
  std::vector<std::uint64_t> counts(shards, 0);
  Xoshiro256 rng(1);
  const std::uint64_t n = 100000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t s =
        ShardIndexOf(ShardRouterHash(rng.Next()), shards);
    ASSERT_LT(s, shards);
    ++counts[s];
  }
  for (unsigned s = 0; s < shards; ++s) {
    EXPECT_GT(counts[s], n / shards / 2) << s;
    EXPECT_LT(counts[s], n / shards * 2) << s;
  }
}

TEST(ShardedTable, ConstructorRejectsZeroShards) {
  EXPECT_THROW(
      ShardedTable32(0, 2, 4, 1024, BucketLayout::kInterleaved),
      std::invalid_argument);
}

TEST(ShardedTable, AdoptionRejectsMismatchedSeeds) {
  std::vector<CuckooTable32> tables;
  tables.emplace_back(2, 4, 64, BucketLayout::kInterleaved, 7);
  EXPECT_THROW(ShardedTable32(std::move(tables), {7, 8}),
               std::invalid_argument);
  EXPECT_THROW(ShardedTable32({}, {}), std::invalid_argument);
  // A table whose store carries another seed than the one recorded for it.
  std::vector<CuckooTable32> reseeded;
  reseeded.emplace_back(2, 4, 64, BucketLayout::kInterleaved, 7);
  EXPECT_THROW(ShardedTable32(std::move(reseeded), {8}),
               std::invalid_argument);
}

TEST(ShardedTable, RoutedOperationsLandInPredictedShard) {
  ShardedTable32 table(4, 2, 4, 4096, BucketLayout::kInterleaved, 11);
  EXPECT_EQ(table.num_shards(), 4u);
  Xoshiro256 rng(12);
  std::vector<std::uint32_t> keys;
  for (int i = 0; i < 2000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    if (table.Insert(key, key ^ 0x5A5A)) keys.push_back(key);
  }
  ASSERT_GT(keys.size(), 1500u);
  EXPECT_EQ(table.size(), keys.size());

  for (std::uint32_t key : keys) {
    std::uint32_t val = 0;
    ASSERT_TRUE(table.Find(key, &val)) << key;
    ASSERT_EQ(val, key ^ 0x5A5A);
    // The key lives in exactly the shard the router names.
    const std::uint32_t home = ShardedTable32::ShardOf(key, 4);
    for (unsigned s = 0; s < 4; ++s) {
      std::uint32_t ignored = 0;
      ASSERT_EQ(table.shard(s).Find(key, &ignored), s == home) << key;
    }
  }

  // Update + erase route the same way.
  EXPECT_TRUE(table.UpdateValue(keys[0], 999));
  std::uint32_t val = 0;
  EXPECT_TRUE(table.Find(keys[0], &val));
  EXPECT_EQ(val, 999u);
  EXPECT_TRUE(table.Erase(keys[0]));
  EXPECT_FALSE(table.Find(keys[0], &val));
  EXPECT_EQ(table.size(), keys.size() - 1);
}

// Acceptance: a 1-shard ShardedTable matches the unsharded table
// bit-for-bit on batched lookups.
TEST(ShardedTable, OneShardMatchesUnshardedBitForBit) {
  const std::uint64_t seed = 123;
  CuckooTable32 unsharded(2, 4, 1024, BucketLayout::kInterleaved, seed);
  CuckooTable32 twin(2, 4, 1024, BucketLayout::kInterleaved, seed);
  Xoshiro256 rng(9);
  std::vector<std::uint32_t> keys;
  for (int i = 0; i < 3000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    const auto val = static_cast<std::uint32_t>(rng.Next());
    const bool a = unsharded.Insert(key, val);
    const bool b = twin.Insert(key, val);
    ASSERT_EQ(a, b);
    if (a) keys.push_back(key);
  }
  // Identical build: same seed + same insert order = same arena bytes.
  ASSERT_EQ(std::memcmp(unsharded.raw_data(), twin.raw_data(),
                        unsharded.table_bytes()),
            0);

  std::vector<CuckooTable32> shard_tables;
  shard_tables.push_back(std::move(twin));
  ShardedTable32 sharded(std::move(shard_tables), {seed});
  ASSERT_EQ(sharded.num_shards(), 1u);
  EXPECT_EQ(sharded.shard_seed(0), seed);
  EXPECT_EQ(std::memcmp(unsharded.raw_data(),
                        sharded.shard(0).raw_data(),
                        unsharded.table_bytes()),
            0);

  // Probe stream with hits and misses, in arbitrary order.
  std::vector<std::uint32_t> probes = keys;
  for (int i = 0; i < 500; ++i) {
    probes.push_back(static_cast<std::uint32_t>(rng.Next()) | 1);
  }
  const KernelInfo* kernel = PickKernel(unsharded.spec());
  ASSERT_NE(kernel, nullptr);
  const auto lookup = [&](const TableView& view, const std::uint32_t* k,
                          std::uint32_t* v, std::uint8_t* f, std::size_t n) {
    return kernel->Lookup(view, ProbeBatch::Of(k, v, f, n));
  };

  std::vector<std::uint32_t> vals_a(probes.size()), vals_b(probes.size());
  std::vector<std::uint8_t> found_a(probes.size()), found_b(probes.size());
  const std::uint64_t hits_a = kernel->Lookup(
      unsharded.view(),
      ProbeBatch::Of(probes.data(), vals_a.data(), found_a.data(),
                     probes.size()));
  const std::uint64_t hits_b = sharded.BatchLookup(
      lookup, probes.data(), vals_b.data(), found_b.data(), probes.size());

  EXPECT_EQ(hits_a, hits_b);
  EXPECT_EQ(std::memcmp(vals_a.data(), vals_b.data(),
                        probes.size() * sizeof(std::uint32_t)),
            0);
  EXPECT_EQ(std::memcmp(found_a.data(), found_b.data(), probes.size()), 0);
}

TEST(ShardedTable, BatchLookupMatchesFindAcrossShards) {
  ShardedTable32 table(8, 2, 4, 8192, BucketLayout::kInterleaved, 31);
  const auto build = FillToLoadFactor(&table, 0.7, 32);
  ASSERT_FALSE(build.inserted_keys.empty());
  EXPECT_GT(table.load_factor(), 0.6);

  Xoshiro256 rng(33);
  std::vector<std::uint32_t> probes = build.inserted_keys;
  for (int i = 0; i < 1000; ++i) {
    probes.push_back(static_cast<std::uint32_t>(rng.Next()) | 1);
  }
  const KernelInfo* kernel = PickKernel(table.spec());
  ASSERT_NE(kernel, nullptr);
  std::vector<std::uint32_t> vals(probes.size());
  std::vector<std::uint8_t> found(probes.size());
  const std::uint64_t hits = table.BatchLookup(
      [&](const TableView& view, const std::uint32_t* k, std::uint32_t* v,
          std::uint8_t* f, std::size_t n) {
        return kernel->Lookup(view, ProbeBatch::Of(k, v, f, n));
      },
      probes.data(), vals.data(), found.data(), probes.size());

  std::uint64_t expected_hits = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    std::uint32_t expected = 0;
    const bool expect_found = table.Find(probes[i], &expected);
    expected_hits += expect_found;
    ASSERT_EQ(static_cast<bool>(found[i]), expect_found) << i;
    if (expect_found) {
      ASSERT_EQ(vals[i], expected) << i;
    }
  }
  EXPECT_EQ(hits, expected_hits);
}

// Satellite: erases racing batched lookups. Doomed keys are erased in
// order; once the writer has published "first E doomed keys erased", no
// batch that *starts* afterwards may report any of those E keys as found
// (a stale hit would mean epoch validation let a torn view through).
// Stable keys must stay found with their exact values throughout.
TEST(ShardedTable, EraseRacingBatchLookupNeverYieldsStaleHits) {
  ShardedTable32 table(4, 2, 4, 8192, BucketLayout::kInterleaved, 21);
  Xoshiro256 rng(22);
  std::unordered_set<std::uint32_t> used;
  std::vector<std::uint32_t> stable, doomed;
  while (stable.size() < 3000) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    if (!used.insert(key).second) continue;
    if (table.Insert(key, key ^ 0xBEEF)) stable.push_back(key);
  }
  while (doomed.size() < 2000) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    if (!used.insert(key).second) continue;
    if (table.Insert(key, key + 1)) doomed.push_back(key);
  }

  std::vector<std::uint32_t> probes = stable;
  probes.insert(probes.end(), doomed.begin(), doomed.end());
  const KernelInfo* kernel = PickKernel(table.spec());
  ASSERT_NE(kernel, nullptr);
  const auto lookup = [&](const TableView& view, const std::uint32_t* k,
                          std::uint32_t* v, std::uint8_t* f, std::size_t n) {
    return kernel->Lookup(view, ProbeBatch::Of(k, v, f, n));
  };

  std::atomic<std::size_t> erased{0};
  std::thread writer([&] {
    for (std::size_t i = 0; i < doomed.size(); ++i) {
      ASSERT_TRUE(table.Erase(doomed[i])) << i;
      erased.store(i + 1, std::memory_order_release);
      if (i % 256 == 0) std::this_thread::yield();
    }
  });

  std::vector<std::uint32_t> vals(probes.size());
  std::vector<std::uint8_t> found(probes.size());
  for (int round = 0; round < 40; ++round) {
    const std::size_t erased_before =
        erased.load(std::memory_order_acquire);
    table.BatchLookup(lookup, probes.data(), vals.data(), found.data(),
                      probes.size());
    for (std::size_t i = 0; i < stable.size(); ++i) {
      ASSERT_TRUE(found[i]) << "round " << round;
      ASSERT_EQ(vals[i], stable[i] ^ 0xBEEF) << "round " << round;
    }
    for (std::size_t i = 0; i < doomed.size(); ++i) {
      const std::size_t pos = stable.size() + i;
      if (i < erased_before) {
        ASSERT_FALSE(found[pos])
            << "stale hit for erased key " << doomed[i] << " in round "
            << round;
      } else if (found[pos]) {
        // Not yet known-erased: a hit must still carry the real value,
        // never a torn one.
        ASSERT_EQ(vals[pos], doomed[i] + 1) << "round " << round;
      }
    }
  }
  writer.join();

  // Final pass: every doomed key is gone, every stable key intact.
  const std::uint64_t hits = table.BatchLookup(
      lookup, probes.data(), vals.data(), found.data(), probes.size());
  EXPECT_EQ(hits, stable.size());
  for (std::size_t i = 0; i < doomed.size(); ++i) {
    ASSERT_FALSE(found[stable.size() + i]);
  }
  EXPECT_EQ(table.size(), stable.size());
}

TEST(ShardedTable, SixtyFourBitShards) {
  ShardedTable64 table(3, 3, 1, 4096, BucketLayout::kInterleaved, 17);
  Xoshiro256 rng(18);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.Next() | 1;
    if (table.Insert(key, key * 7)) keys.push_back(key);
  }
  for (std::uint64_t key : keys) {
    std::uint64_t val = 0;
    ASSERT_TRUE(table.Find(key, &val));
    ASSERT_EQ(val, key * 7);
  }
}

}  // namespace
}  // namespace simdht
