// Batched mutation engine tests: scan-kernel agreement and bit-identical
// batch-vs-scalar equivalence across all four table families.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "ht/cuckoo_table.h"
#include "ht/memc3_table.h"
#include "ht/mutation.h"
#include "ht/sharded_table.h"
#include "ht/swiss_table.h"

namespace simdht {
namespace {

// Unique nonzero keys: multiplication by an odd constant is a bijection on
// the key width, so the stream never repeats or hits the empty sentinel.
template <typename K>
std::vector<K> MakeKeys(std::size_t n, std::uint64_t salt = 0) {
  std::vector<K> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<K>((i + 1 + salt) * 2654435761ULL);
    if (keys[i] == 0) keys[i] = 1;
  }
  return keys;
}

template <typename V, typename K>
std::vector<V> MakeVals(const std::vector<K>& keys) {
  std::vector<V> vals(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    vals[i] = static_cast<V>(keys[i] * 0x9E3779B97F4A7C15ULL + 1);
  }
  return vals;
}

template <typename Table>
void ExpectSameCuckooState(const Table& scalar, const Table& batch) {
  ASSERT_EQ(scalar.size(), batch.size());
  ASSERT_EQ(scalar.table_bytes(), batch.table_bytes());
  EXPECT_EQ(std::memcmp(scalar.raw_data(), batch.raw_data(),
                        scalar.table_bytes()),
            0);
  ASSERT_EQ(scalar.stash_count(), batch.stash_count());
  const TableStore& ss = scalar.store();
  const TableStore& bs = batch.store();
  EXPECT_EQ(ss.seed(), bs.seed());
  for (unsigned i = 0; i < scalar.stash_count(); ++i) {
    EXPECT_EQ(ss.stash_at(i).key, bs.stash_at(i).key);
    EXPECT_EQ(ss.stash_at(i).val, bs.stash_at(i).val);
  }
  const InsertStats& a = scalar.insert_stats();
  const InsertStats& b = batch.insert_stats();
  EXPECT_EQ(a.direct_inserts, b.direct_inserts);
  EXPECT_EQ(a.path_inserts, b.path_inserts);
  EXPECT_EQ(a.path_moves, b.path_moves);
  EXPECT_EQ(a.stash_inserts, b.stash_inserts);
  EXPECT_EQ(a.rebuilds, b.rebuilds);
  EXPECT_EQ(a.failed_inserts, b.failed_inserts);
}

TEST(MutationRegistry, HasScalarTwinsForEveryFamily) {
  const MutationRegistry& reg = MutationRegistry::Get();
  EXPECT_NE(reg.ByName("MutScan-Scalar/k32"), nullptr);
  EXPECT_NE(reg.ByName("MutScan-Scalar/k64"), nullptr);
  EXPECT_NE(reg.ByName("MutScan-Scalar/ctrl"), nullptr);
  LayoutSpec spec;
  spec.ways = 2;
  spec.slots = 4;
  spec.key_bits = 32;
  spec.val_bits = 32;
  spec.bucket_layout = BucketLayout::kInterleaved;
  ASSERT_NE(reg.ForCuckoo(spec), nullptr);
  ASSERT_NE(reg.ForSwiss(), nullptr);
}

// Every registered cuckoo scan that matches a spec must agree with the
// scalar twin on every bucket of a part-filled table — this exercises the
// SSE and AVX2 scans (vector body + scalar tails) against the reference.
template <typename K, typename V>
void CheckCuckooScanAgreement(unsigned ways, unsigned slots,
                              BucketLayout layout) {
  CuckooTable<K, V> table(ways, slots, 256, layout, /*seed=*/7);
  const auto keys = MakeKeys<K>(table.capacity() / 2);
  const auto vals = MakeVals<V>(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.Insert(keys[i], vals[i]);
  }
  const TableView view = table.view();
  const MutationRegistry& reg = MutationRegistry::Get();
  const MutationKernel* scalar =
      reg.ByName(sizeof(K) == 8 ? "MutScan-Scalar/k64"
                 : sizeof(K) == 4 ? "MutScan-Scalar/k32"
                                  : "MutScan-Scalar/k16");
  ASSERT_NE(scalar, nullptr);
  const CpuFeatures& cpu = GetCpuFeatures();
  for (const MutationKernel& k : reg.all()) {
    if (!k.MatchesCuckoo(view.spec) || !cpu.Supports(k.level)) continue;
    for (std::uint64_t b = 0; b < table.num_buckets(); ++b) {
      // Probe with a key stored somewhere, plus one never inserted.
      for (const std::uint64_t probe :
           {static_cast<std::uint64_t>(keys[b % keys.size()]),
            static_cast<std::uint64_t>(static_cast<K>(0x5DEECE66DULL))}) {
        const BucketScan want = scalar->bucket_scan(view, b, probe);
        const BucketScan got = k.bucket_scan(view, b, probe);
        ASSERT_EQ(want.match_slot, got.match_slot)
            << k.name << " bucket " << b;
        ASSERT_EQ(want.empty_slot, got.empty_slot)
            << k.name << " bucket " << b;
      }
    }
  }
}

TEST(MutationKernels, CuckooScansAgreeWithScalar) {
  CheckCuckooScanAgreement<std::uint32_t, std::uint32_t>(
      2, 4, BucketLayout::kInterleaved);
  CheckCuckooScanAgreement<std::uint32_t, std::uint32_t>(
      2, 8, BucketLayout::kSplit);
  CheckCuckooScanAgreement<std::uint64_t, std::uint64_t>(
      2, 4, BucketLayout::kInterleaved);
  CheckCuckooScanAgreement<std::uint64_t, std::uint64_t>(
      3, 1, BucketLayout::kSplit);
  CheckCuckooScanAgreement<std::uint16_t, std::uint32_t>(
      2, 8, BucketLayout::kSplit);
}

TEST(MutationKernels, SwissGroupScansAgreeWithScalar) {
  SwissTable32 table(64, /*seed=*/3);
  const auto keys = MakeKeys<std::uint32_t>(table.capacity() / 2);
  const auto vals = MakeVals<std::uint32_t>(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.Insert(keys[i], vals[i]);
  }
  // Seed some tombstones so free_mask != empty_mask somewhere.
  for (std::size_t i = 0; i < keys.size(); i += 5) table.Erase(keys[i]);
  const TableView view = table.view();
  const MutationRegistry& reg = MutationRegistry::Get();
  const MutationKernel* scalar = reg.ByName("MutScan-Scalar/ctrl");
  ASSERT_NE(scalar, nullptr);
  const CpuFeatures& cpu = GetCpuFeatures();
  for (const MutationKernel& k : reg.all()) {
    if (k.family != TableFamily::kSwiss || k.group_scan == nullptr) continue;
    if (!cpu.Supports(k.level)) continue;
    for (std::uint64_t g = 0; g < table.num_buckets(); ++g) {
      const std::uint8_t* ctrl = view.meta + g * kSwissGroupSlots;
      for (const std::uint8_t h2 : {std::uint8_t{0}, std::uint8_t{0x3A},
                                    view.meta[g * kSwissGroupSlots]}) {
        const GroupScan want = scalar->group_scan(ctrl, h2);
        const GroupScan got = k.group_scan(ctrl, h2);
        ASSERT_EQ(want.match_mask, got.match_mask) << k.name << " g" << g;
        ASSERT_EQ(want.empty_mask, got.empty_mask) << k.name << " g" << g;
        ASSERT_EQ(want.free_mask, got.free_mask) << k.name << " g" << g;
      }
    }
  }
}

template <typename K, typename V>
void CheckCuckooBatchEquivalence(unsigned ways, unsigned slots,
                                 BucketLayout layout, double fill) {
  CuckooTable<K, V> scalar(ways, slots, 512, layout, /*seed=*/11);
  CuckooTable<K, V> batch(ways, slots, 512, layout, /*seed=*/11);
  const auto n = static_cast<std::size_t>(
      static_cast<double>(scalar.capacity()) * fill);
  auto keys = MakeKeys<K>(n);
  const auto vals = MakeVals<V>(keys);
  std::vector<std::uint8_t> want_ok(n), got_ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.Insert(keys[i], vals[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<K, V>::Of(keys.data(), vals.data(),
                                            got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  ExpectSameCuckooState(scalar, batch);

  // Second wave: overwrite half the keys, update the other half, through
  // the batched paths, against the scalar reference.
  auto vals2 = vals;
  for (auto& v : vals2) v ^= static_cast<V>(0xABCD1234);
  const std::size_t half = n / 2;
  for (std::size_t i = 0; i < half; ++i) {
    want_ok[i] = scalar.Insert(keys[i], vals2[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<K, V>::Of(keys.data(), vals2.data(),
                                            got_ok.data(), half));
  for (std::size_t i = half; i < n; ++i) {
    want_ok[i] = scalar.UpdateValue(keys[i], vals2[i]) ? 1 : 0;
  }
  batch.BatchUpdate(MutationBatch<K, V>::Of(keys.data() + half,
                                            vals2.data() + half,
                                            got_ok.data() + half, n - half));
  EXPECT_EQ(want_ok, got_ok);
  ExpectSameCuckooState(scalar, batch);
}

TEST(MutationBatch, CuckooBfsEquivalence) {
  CheckCuckooBatchEquivalence<std::uint32_t, std::uint32_t>(
      2, 4, BucketLayout::kInterleaved, 0.92);
  CheckCuckooBatchEquivalence<std::uint64_t, std::uint64_t>(
      2, 4, BucketLayout::kInterleaved, 0.92);
  CheckCuckooBatchEquivalence<std::uint64_t, std::uint64_t>(
      3, 1, BucketLayout::kSplit, 0.85);
  CheckCuckooBatchEquivalence<std::uint16_t, std::uint32_t>(
      2, 8, BucketLayout::kSplit, 0.9);
}

TEST(MutationBatch, RejectsZeroKeysWithoutStateChange) {
  CuckooTable32 table(2, 4, 64, BucketLayout::kInterleaved);
  std::uint32_t keys[3] = {5, 0, 9};
  std::uint32_t vals[3] = {50, 1, 90};
  std::uint8_t ok[3] = {9, 9, 9};
  table.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys, vals, ok, 3));
  EXPECT_EQ(ok[0], 1);
  EXPECT_EQ(ok[1], 0);
  EXPECT_EQ(ok[2], 1);
  EXPECT_EQ(table.size(), 2u);
  std::uint32_t v = 0;
  EXPECT_TRUE(table.Find(5, &v));
  EXPECT_EQ(v, 50u);
  EXPECT_FALSE(table.Find(0, &v));
}

TEST(MutationBatch, DuplicateKeysWithinBatchResolveInOrder) {
  CuckooTable32 scalar(2, 4, 64, BucketLayout::kInterleaved);
  CuckooTable32 batch(2, 4, 64, BucketLayout::kInterleaved);
  std::vector<std::uint32_t> keys = {7, 8, 7, 9, 7, 8};
  std::vector<std::uint32_t> vals = {1, 2, 3, 4, 5, 6};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    scalar.Insert(keys[i], vals[i]);
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals.data(), nullptr, keys.size()));
  ExpectSameCuckooState(scalar, batch);
  std::uint32_t v = 0;
  ASSERT_TRUE(batch.Find(7, &v));
  EXPECT_EQ(v, 5u);  // last write of key 7 wins
  ASSERT_TRUE(batch.Find(8, &v));
  EXPECT_EQ(v, 6u);
  EXPECT_EQ(batch.size(), 3u);
}

TEST(MutationBatch, StashOverflowAndRebuildMidBatch) {
  // A deliberately overloaded table: the conflict tail spills to the stash,
  // overflows it, and publishes a rebuild (reseed) mid-batch — the engine
  // must re-block-hash the rest of the chunk and still match scalar.
  constexpr unsigned kWays = 2, kSlots = 1;
  CuckooTable32 scalar(kWays, kSlots, 16, BucketLayout::kSplit, /*seed=*/5);
  CuckooTable32 batch(kWays, kSlots, 16, BucketLayout::kSplit, /*seed=*/5);
  scalar.set_stash_capacity(2);
  batch.set_stash_capacity(2);
  const std::size_t n = 20;  // > capacity 16: guaranteed stash + rebuilds
  auto keys = MakeKeys<std::uint32_t>(n, /*salt=*/77);
  const auto vals = MakeVals<std::uint32_t>(keys);
  std::vector<std::uint8_t> want_ok(n), got_ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.Insert(keys[i], vals[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  ExpectSameCuckooState(scalar, batch);
}

TEST(MutationBatch, FailedInsertsMatchScalarWhenRebuildDisabled) {
  CuckooTable32 scalar(2, 1, 8, BucketLayout::kSplit, /*seed=*/5);
  CuckooTable32 batch(2, 1, 8, BucketLayout::kSplit, /*seed=*/5);
  for (CuckooTable32* t : {&scalar, &batch}) {
    t->set_stash_capacity(1);
    t->set_rebuild_enabled(false);
  }
  const std::size_t n = 16;
  auto keys = MakeKeys<std::uint32_t>(n, /*salt=*/123);
  const auto vals = MakeVals<std::uint32_t>(keys);
  std::vector<std::uint8_t> want_ok(n), got_ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.Insert(keys[i], vals[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  ExpectSameCuckooState(scalar, batch);
  EXPECT_GT(batch.insert_stats().failed_inserts, 0u);
}

TEST(MutationBatch, SwissEquivalence) {
  SwissTable32 scalar(64, /*seed=*/9);
  SwissTable32 batch(64, /*seed=*/9);
  const auto n = static_cast<std::size_t>(
      static_cast<double>(scalar.capacity()) * 0.9);
  auto keys = MakeKeys<std::uint32_t>(n);
  const auto vals = MakeVals<std::uint32_t>(keys);
  std::vector<std::uint8_t> want_ok(n), got_ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.Insert(keys[i], vals[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  ASSERT_EQ(scalar.size(), batch.size());
  EXPECT_EQ(std::memcmp(scalar.raw_data(), batch.raw_data(),
                        scalar.table_bytes()),
            0);
  for (std::uint64_t s = 0; s < scalar.capacity(); ++s) {
    ASSERT_EQ(scalar.CtrlAt(s), batch.CtrlAt(s)) << "ctrl slot " << s;
  }
  EXPECT_EQ(scalar.insert_stats().inserts, batch.insert_stats().inserts);
  EXPECT_EQ(scalar.insert_stats().updates, batch.insert_stats().updates);
  EXPECT_EQ(scalar.insert_stats().failed_inserts,
            batch.insert_stats().failed_inserts);

  // Erase a stripe (creates tombstones), then re-insert + update batched.
  for (std::size_t i = 0; i < n; i += 3) {
    scalar.Erase(keys[i]);
    batch.Erase(keys[i]);
  }
  auto vals2 = vals;
  for (auto& v : vals2) v += 17;
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.Insert(keys[i], vals2[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals2.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  EXPECT_EQ(scalar.insert_stats().tombstone_reuses,
            batch.insert_stats().tombstone_reuses);
  EXPECT_EQ(std::memcmp(scalar.raw_data(), batch.raw_data(),
                        scalar.table_bytes()),
            0);
  for (std::uint64_t s = 0; s < scalar.capacity(); ++s) {
    ASSERT_EQ(scalar.CtrlAt(s), batch.CtrlAt(s)) << "ctrl slot " << s;
  }

  std::vector<std::uint32_t> missing = {1234567u, 7654321u};
  std::vector<std::uint32_t> mvals = {1u, 2u};
  std::uint8_t mok[2] = {9, 9};
  batch.BatchUpdate(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      missing.data(), mvals.data(), mok, 2));
  EXPECT_EQ(mok[0], 0);
  EXPECT_EQ(mok[1], 0);
}

TEST(MutationBatch, Memc3Equivalence) {
  Memc3Table scalar(64, /*seed=*/13);
  Memc3Table batch(64, /*seed=*/13);
  const std::size_t n = 4 * 64 + 8;  // past capacity: stash + failures
  std::vector<std::uint64_t> hashes(n), items(n);
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = Mix64(i + 1);
    items[i] = 0x1000 + i;
  }
  std::vector<std::uint8_t> want_ok(n), got_ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.Insert(hashes[i], items[i]) ? 1 : 0;
  }
  batch.BatchInsert(hashes.data(), items.data(), got_ok.data(), n);
  EXPECT_EQ(want_ok, got_ok);
  ASSERT_EQ(scalar.size(), batch.size());
  // A tag table has no raw-arena accessor; candidate lists for every hash
  // are a complete, ordered probe of both buckets + stash.
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t want[Memc3Table::kMaxCandidates];
    std::uint64_t got[Memc3Table::kMaxCandidates];
    const unsigned wc = scalar.FindCandidates(hashes[i], want);
    const unsigned gc = batch.FindCandidates(hashes[i], got);
    ASSERT_EQ(wc, gc) << "hash " << i;
    for (unsigned c = 0; c < wc; ++c) {
      ASSERT_EQ(want[c], got[c]) << "hash " << i << " cand " << c;
    }
  }
}

TEST(ShardedBatchMutation, MatchesPerKeyRouting) {
  ShardedTable32 scalar(4, 2, 4, 1024, BucketLayout::kInterleaved,
                        /*seed=*/21);
  ShardedTable32 batch(4, 2, 4, 1024, BucketLayout::kInterleaved,
                       /*seed=*/21);
  const std::size_t n = 900;
  auto keys = MakeKeys<std::uint32_t>(n);
  const auto vals = MakeVals<std::uint32_t>(keys);
  std::vector<std::uint8_t> want_ok(n), got_ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.Insert(keys[i], vals[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  ASSERT_EQ(scalar.size(), batch.size());
  for (unsigned s = 0; s < scalar.num_shards(); ++s) {
    const ConcurrentCuckooTable32& st = scalar.shard(s);
    const ConcurrentCuckooTable32& bt = batch.shard(s);
    ASSERT_EQ(st.size(), bt.size()) << "shard " << s;
    EXPECT_EQ(std::memcmp(st.raw_data(), bt.raw_data(), st.table_bytes()), 0)
        << "shard " << s;
  }
  const std::vector<InsertStats> per_shard = batch.ShardInsertStats();
  ASSERT_EQ(per_shard.size(), 4u);
  std::uint64_t direct = 0;
  for (const InsertStats& st : per_shard) direct += st.direct_inserts;
  EXPECT_EQ(direct, batch.insert_stats().direct_inserts);

  // Batched update wave through the sharded scatter/gather.
  auto vals2 = vals;
  for (auto& v : vals2) v ^= 0xFFu;
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.UpdateValue(keys[i], vals2[i]) ? 1 : 0;
  }
  batch.BatchUpdate(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals2.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  for (unsigned s = 0; s < scalar.num_shards(); ++s) {
    const ConcurrentCuckooTable32& st = scalar.shard(s);
    const ConcurrentCuckooTable32& bt = batch.shard(s);
    EXPECT_EQ(std::memcmp(st.raw_data(), bt.raw_data(), st.table_bytes()), 0)
        << "shard " << s;
  }
}

TEST(ConcurrentBatchMutation, MatchesScalarSingleThreaded) {
  ConcurrentCuckooTable32 scalar(2, 4, 512, BucketLayout::kInterleaved,
                                 /*seed=*/31);
  ConcurrentCuckooTable32 batch(2, 4, 512, BucketLayout::kInterleaved,
                                /*seed=*/31);
  const auto n = static_cast<std::size_t>(
      static_cast<double>(scalar.capacity()) * 0.9);
  auto keys = MakeKeys<std::uint32_t>(n);
  const auto vals = MakeVals<std::uint32_t>(keys);
  std::vector<std::uint8_t> want_ok(n), got_ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.Insert(keys[i], vals[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  ExpectSameCuckooState(scalar, batch);

  auto vals2 = vals;
  for (auto& v : vals2) v += 3;
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.UpdateValue(keys[i], vals2[i]) ? 1 : 0;
  }
  batch.BatchUpdate(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals2.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  ExpectSameCuckooState(scalar, batch);
}

TEST(ConcurrentBatchMutation, ReadersDuringBatchInsert) {
  // Readers hammer Find while one writer streams BatchInsert waves; the
  // seqlock/epoch discipline of the batched fast path must keep every
  // validated read coherent (tsan runs this with full instrumentation).
  ConcurrentCuckooTable32 table(2, 4, 2048, BucketLayout::kInterleaved,
                                /*seed=*/41);
  const std::size_t n = 4096;
  auto keys = MakeKeys<std::uint32_t>(n);
  const auto vals = MakeVals<std::uint32_t>(keys);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t salt = t;
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t i = (salt = Mix64(salt + 1)) % n;
        std::uint32_t v = 0;
        if (table.Find(keys[i], &v) && v != vals[i]) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  constexpr std::size_t kWave = 256;
  for (std::size_t off = 0; off < n; off += kWave) {
    table.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
        keys.data() + off, vals.data() + off, nullptr,
        std::min(kWave, n - off)));
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u);
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(table.Find(keys[i], &v)) << "key index " << i;
    ASSERT_EQ(v, vals[i]);
  }
}

}  // namespace
}  // namespace simdht
