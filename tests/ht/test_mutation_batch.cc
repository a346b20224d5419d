// Batched mutation engine tests: scan-kernel agreement and bit-identical
// batch-vs-scalar equivalence across all four table families.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "ht/cuckoo_table.h"
#include "ht/memc3_table.h"
#include "ht/mutation.h"
#include "ht/sharded_table.h"
#include "ht/swiss_table.h"
#include "simd/kernel.h"

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

// The registry serves the cuckoo family only: Swiss writes scan their
// control groups with the inlined ScanSwissGroup (ht/swiss_scan.h).
TEST(MutationRegistry, HasScalarTwinsForEveryFamily) {
  const MutationRegistry& reg = MutationRegistry::Get();
  EXPECT_NE(reg.ByName("MutScan-Scalar/cuckoo"), nullptr);
  EXPECT_EQ(reg.ByName("MutScan-Scalar/ctrl"), nullptr);
  EXPECT_EQ(reg.ByName("MutScan-SSE/ctrl"), nullptr);
  ASSERT_NE(reg.ForCuckoo(), nullptr);
  ASSERT_NE(reg.ForCuckoo()->cuckoo_scan_for, nullptr);
  // One cuckoo scan per tier, each serving every cuckoo layout.
  unsigned cuckoo_scans[3] = {0, 0, 0};
  for (const MutationKernel& k : reg.all()) {
    ASSERT_NE(k.cuckoo_scan_for, nullptr) << k.name;
    ASSERT_LT(static_cast<unsigned>(k.level), 3u) << k.name;
    ++cuckoo_scans[static_cast<unsigned>(k.level)];
  }
  for (const unsigned count : cuckoo_scans) EXPECT_EQ(count, 1u);
}

// Sets bucket b, slot s of a table's arena to `key` (value untouched).
template <typename Table, typename K>
void PokeKey(Table* table, std::uint64_t b, unsigned s, K key) {
  const TableView view = table->view();
  std::memcpy(table->raw_data_mutable() + (view.key_ptr(b, s) - view.data),
              &key, sizeof(K));
}

// Every registered cuckoo scan must agree with the scalar twin on whole
// candidate sets: the real candidates of stored keys in a part-filled table
// (SSE and AVX2 loads, one or several per bucket, masked down to m slots),
// sets whose ways all name the same bucket, sets of empty buckets, and sets
// of full buckets with the probe in the very last slot (the top mask bit).
template <typename K, typename V>
void CheckFusedScanAgreement(unsigned ways, unsigned slots,
                             BucketLayout layout) {
  SCOPED_TRACE(std::to_string(ways) + "-way m=" + std::to_string(slots) +
               " k" + std::to_string(8 * sizeof(K)) + "v" +
               std::to_string(8 * sizeof(V)) + " " + BucketLayoutName(layout));
  constexpr std::uint64_t kBuckets = 256;
  CuckooTable<K, V> part(ways, slots, kBuckets, layout, /*seed=*/7);
  const auto keys = MakeKeys<K>(part.capacity() / 2);
  const auto vals = MakeVals<V>(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) part.Insert(keys[i], vals[i]);
  const CuckooTable<K, V> empty(ways, slots, kBuckets, layout, /*seed=*/7);
  // Buckets [0, ways) of `full` hold nonzero keys in every slot; the probe
  // key sits in the last slot of the last of them.
  CuckooTable<K, V> full(ways, slots, kBuckets, layout, /*seed=*/7);
  const K last_key = static_cast<K>(0x7A5B);
  for (unsigned b = 0; b < ways; ++b) {
    for (unsigned s = 0; s < slots; ++s) {
      const bool last = b + 1 == ways && s + 1 == slots;
      PokeKey(&full, b, s, last ? last_key : static_cast<K>(b * 16 + s + 1));
    }
  }
  const K missing = static_cast<K>(0x5DEECE66DULL);

  struct Case {
    const CuckooTable<K, V>* table;
    std::array<std::uint32_t, kMaxWays> candidates;
    K probe;
  };
  std::vector<Case> cases;
  for (std::size_t i = 0; i < keys.size(); i += 3) {
    Case c{&part, {}, keys[i]};
    for (unsigned w = 0; w < ways; ++w) {
      c.candidates[w] = part.store().template Bucket<K>(w, keys[i]);
    }
    cases.push_back(c);
    c.probe = missing;
    cases.push_back(c);
  }
  for (std::uint32_t b = 0; b < kBuckets; b += 5) {
    Case c{&part, {}, part.KeyAt(b, 0)};
    c.candidates.fill(b);
    cases.push_back(c);
    c.probe = missing;
    cases.push_back(c);
  }
  Case all_empty{&empty, {}, missing};
  for (unsigned w = 0; w < ways; ++w) all_empty.candidates[w] = 3 * w + 1;
  cases.push_back(all_empty);
  Case all_full{&full, {}, last_key};
  for (unsigned w = 0; w < ways; ++w) all_full.candidates[w] = w;
  cases.push_back(all_full);
  all_full.probe = missing;
  cases.push_back(all_full);
  all_full.candidates.fill(0);  // every way names the same full bucket
  all_full.probe = static_cast<K>(1);
  cases.push_back(all_full);

  const MutationRegistry& reg = MutationRegistry::Get();
  const MutationKernel* scalar = reg.ByName("MutScan-Scalar/cuckoo");
  ASSERT_NE(scalar, nullptr);
  const CpuFeatures& cpu = GetCpuFeatures();
  unsigned checked = 0;
  for (const MutationKernel& k : reg.all()) {
    if (!cpu.Supports(k.level)) continue;
    ++checked;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      const TableView view = c.table->view();
      const auto probe = static_cast<std::uint64_t>(c.probe);
      const CuckooScan want = scalar->cuckoo_scan_for(view.spec)(
          view, c.candidates.data(), probe);
      const CuckooScan got =
          k.cuckoo_scan_for(view.spec)(view, c.candidates.data(), probe);
      ASSERT_EQ(want.match, got.match) << k.name << " case " << i;
      ASSERT_EQ(want.empty, got.empty) << k.name << " case " << i;
    }
  }
  EXPECT_GE(checked, 2u);  // the scalar twin and at least the SSE scan
  // The crafted cases mean what they say.
  const TableView full_view = full.view();
  const std::uint32_t top = std::uint32_t{1} << (ways * slots - 1);
  const CuckooScanFn scalar_scan = scalar->cuckoo_scan_for(full_view.spec);
  const CuckooScan last =
      scalar_scan(full_view, cases[cases.size() - 3].candidates.data(),
                  static_cast<std::uint64_t>(last_key));
  EXPECT_EQ(last.match, top);
  EXPECT_EQ(last.empty, 0u);
  const CuckooScan none =
      scalar_scan(empty.view(), all_empty.candidates.data(),
                  static_cast<std::uint64_t>(missing));
  EXPECT_EQ(none.match, 0u);
  EXPECT_EQ(none.empty, (top << 1) - 1);
}

TEST(MutationKernels, FusedCuckooScansAgreeWithScalar) {
  CheckFusedScanAgreement<std::uint32_t, std::uint32_t>(
      2, 4, BucketLayout::kInterleaved);
  CheckFusedScanAgreement<std::uint32_t, std::uint32_t>(
      2, 8, BucketLayout::kSplit);
  CheckFusedScanAgreement<std::uint64_t, std::uint64_t>(
      2, 4, BucketLayout::kInterleaved);
  CheckFusedScanAgreement<std::uint64_t, std::uint64_t>(
      3, 1, BucketLayout::kSplit);
  CheckFusedScanAgreement<std::uint16_t, std::uint32_t>(
      2, 8, BucketLayout::kSplit);
  // Widest masks and multi-load buckets: 4 ways x 8 slots fill all 32 bits.
  CheckFusedScanAgreement<std::uint32_t, std::uint32_t>(
      4, 8, BucketLayout::kInterleaved);
  CheckFusedScanAgreement<std::uint64_t, std::uint64_t>(
      4, 8, BucketLayout::kSplit);
  CheckFusedScanAgreement<std::uint16_t, std::uint32_t>(
      4, 2, BucketLayout::kSplit);
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

TEST(MutationBatch, StashOverflowAndRebuildAcrossTiles) {
  // The same overload over four 64-key tiles, with random keys: the table
  // rebuilds (reseeds) in the third tile, when the fourth tile's candidates
  // are hashed already, and keys of that fourth tile still find empty
  // slots -- so the engine must hash that tile again too.
  CuckooTable32 scalar(2, 1, 256, BucketLayout::kSplit, /*seed=*/5);
  CuckooTable32 batch(2, 1, 256, BucketLayout::kSplit, /*seed=*/5);
  scalar.set_stash_capacity(1);
  batch.set_stash_capacity(1);
  const std::size_t n = 256;
  std::vector<std::uint32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<std::uint32_t>(Mix64(i + 6000));
    if (keys[i] == 0) keys[i] = 1;
  }
  const auto vals = MakeVals<std::uint32_t>(keys);
  std::vector<std::uint8_t> want_ok(n), got_ok(n);
  std::vector<std::size_t> rebuilt_at;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t rebuilds = scalar.insert_stats().rebuilds;
    want_ok[i] = scalar.Insert(keys[i], vals[i]) ? 1 : 0;
    if (scalar.insert_stats().rebuilds != rebuilds) rebuilt_at.push_back(i);
  }
  ASSERT_FALSE(rebuilt_at.empty());
  EXPECT_LT(rebuilt_at.front(), n - kMutationChunk);
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  ExpectSameCuckooState(scalar, batch);
}

// Values of BatchUpdate round `round`: distinct per (position, round), so
// a write that lands in the wrong slot or order shows in the bytes.
template <typename V>
V RoundVal(std::size_t i, unsigned round) {
  return static_cast<V>(Mix64(i * 131 + round) | 1);
}

// BatchUpdate against a per-key UpdateValue oracle on a twin table, over a
// saturated table (full stash, many keys in their second candidate bucket),
// with misses, key 0 and in-batch repeats mixed in, for batch sizes around
// the prefetch distance and tile boundaries.
template <typename K, typename V, typename W>
void CheckBatchUpdateMatchesUpdateValue(unsigned ways, unsigned slots,
                                        BucketLayout layout) {
  SCOPED_TRACE(std::to_string(ways) + "-way m=" + std::to_string(slots) +
               " k" + std::to_string(8 * sizeof(K)) + "v" +
               std::to_string(8 * sizeof(V)) + " " + BucketLayoutName(layout) +
               (std::is_same_v<W, SeqlockWriters> ? " seqlock" : " single"));
  using Table = CuckooTable<K, V, W>;
  Table oracle(ways, slots, 64, layout, /*seed=*/17);
  Table batch(ways, slots, 64, layout, /*seed=*/17);
  for (Table* t : {&oracle, &batch}) t->set_rebuild_enabled(false);
  std::vector<K> stored;
  std::unordered_set<K> stored_set;
  for (const K k : MakeKeys<K>(4 * oracle.capacity())) {
    const auto v = static_cast<V>(k);
    const bool placed = oracle.Insert(k, v);
    ASSERT_EQ(placed, batch.Insert(k, v));
    if (!placed) break;
    stored.push_back(k);
    stored_set.insert(k);
  }
  ASSERT_GT(oracle.stash_count(), 0u);

  std::vector<K> stash_keys, second_way_keys, misses;
  for (unsigned i = 0; i < oracle.stash_count(); ++i) {
    stash_keys.push_back(static_cast<K>(oracle.store().stash_at(i).key));
  }
  for (const K k : stored) {
    const std::uint64_t b0 = oracle.store().template Bucket<K>(0, k);
    bool in_first = false;
    for (unsigned s = 0; s < slots; ++s) in_first |= oracle.KeyAt(b0, s) == k;
    if (!in_first) second_way_keys.push_back(k);
  }
  for (const K k : MakeKeys<K>(256, /*salt=*/40000)) {
    if (stored_set.count(k) == 0) misses.push_back(k);
  }
  ASSERT_FALSE(second_way_keys.empty());
  ASSERT_FALSE(misses.empty());

  // The request stream: stored keys, with second-bucket keys, stash keys,
  // misses, key 0 and repeats of a key three positions back mixed in.
  std::vector<K> stream(1000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    switch (i % 10) {
      case 1: stream[i] = second_way_keys[i % second_way_keys.size()]; break;
      case 2: stream[i] = stash_keys[i % stash_keys.size()]; break;
      case 4: stream[i] = misses[i % misses.size()]; break;
      case 6: stream[i] = i % 20 == 6 ? K{0} : stream[i - 3]; break;
      case 8: stream[i] = stream[i - 1]; break;
      default: stream[i] = stored[(i * 7) % stored.size()]; break;
    }
  }

  unsigned round = 0;
  auto run = [&](std::size_t n, bool with_ok) {
    ++round;
    SCOPED_TRACE("n=" + std::to_string(n) + (with_ok ? "" : " ok=null"));
    std::vector<V> vals(n);
    for (std::size_t i = 0; i < n; ++i) vals[i] = RoundVal<V>(i, round);
    std::vector<std::uint8_t> want_ok(n), got_ok(n, 0xEE);
    for (std::size_t i = 0; i < n; ++i) {
      want_ok[i] = oracle.UpdateValue(stream[i], vals[i]) ? 1 : 0;
    }
    batch.BatchUpdate(MutationBatch<K, V>::Of(
        stream.data(), vals.data(), with_ok ? got_ok.data() : nullptr, n));
    if (with_ok) {
      EXPECT_EQ(want_ok, got_ok);
    }
    ExpectSameCuckooState(oracle, batch);
  };
  for (const std::size_t n : {0, 1, 31, 32, 33, 63, 64, 65, 129, 1000}) {
    run(n, /*with_ok=*/true);
  }
  run(1000, /*with_ok=*/false);

  // Misses alone: every ok is 0 and not one byte moves.
  std::vector<std::uint8_t> before(batch.table_bytes());
  std::memcpy(before.data(), batch.raw_data(), before.size());
  std::vector<V> vals(misses.size(), static_cast<V>(0x55));
  std::vector<std::uint8_t> ok(misses.size(), 0xEE);
  batch.BatchUpdate(MutationBatch<K, V>::Of(misses.data(), vals.data(),
                                            ok.data(), misses.size()));
  EXPECT_EQ(ok, std::vector<std::uint8_t>(misses.size(), 0));
  EXPECT_EQ(std::memcmp(before.data(), batch.raw_data(), before.size()), 0);
}

template <typename W>
void CheckBatchUpdateLayouts() {
  CheckBatchUpdateMatchesUpdateValue<std::uint32_t, std::uint32_t, W>(
      2, 4, BucketLayout::kInterleaved);
  CheckBatchUpdateMatchesUpdateValue<std::uint64_t, std::uint64_t, W>(
      2, 4, BucketLayout::kInterleaved);
  CheckBatchUpdateMatchesUpdateValue<std::uint64_t, std::uint64_t, W>(
      3, 1, BucketLayout::kSplit);
  CheckBatchUpdateMatchesUpdateValue<std::uint16_t, std::uint32_t, W>(
      2, 8, BucketLayout::kSplit);
}

TEST(MutationBatch, CuckooBatchUpdateMatchesUpdateValue) {
  CheckBatchUpdateLayouts<SingleWriter>();
  CheckBatchUpdateLayouts<SeqlockWriters>();
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

void ExpectSameSwissState(const SwissTable32& scalar,
                          const SwissTable32& batch) {
  ASSERT_EQ(scalar.size(), batch.size());
  EXPECT_EQ(std::memcmp(scalar.raw_data(), batch.raw_data(),
                        scalar.table_bytes()),
            0);
  EXPECT_EQ(std::memcmp(scalar.store().meta_data(), batch.store().meta_data(),
                        scalar.store().meta_bytes()),
            0);
  EXPECT_EQ(scalar.tombstones(), batch.tombstones());
  const SwissInsertStats& a = scalar.insert_stats();
  const SwissInsertStats& b = batch.insert_stats();
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.tombstone_reuses, b.tombstone_reuses);
  EXPECT_EQ(a.failed_inserts, b.failed_inserts);
  EXPECT_EQ(a.purges, b.purges);
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
  ExpectSameSwissState(scalar, batch);

  // Erase a stripe (creates tombstones), then re-insert + update batched.
  for (std::size_t i = 0; i < n; i += 3) {
    scalar.Erase(keys[i]);
    batch.Erase(keys[i]);
  }
  ASSERT_GT(batch.tombstones(), 0u);
  auto vals2 = vals;
  for (auto& v : vals2) v += 17;
  for (std::size_t i = 0; i < n; ++i) {
    want_ok[i] = scalar.Insert(keys[i], vals2[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      keys.data(), vals2.data(), got_ok.data(), n));
  EXPECT_EQ(want_ok, got_ok);
  EXPECT_GT(batch.insert_stats().tombstone_reuses, 0u);
  ExpectSameSwissState(scalar, batch);

  // Fill to a few EMPTY slots short of full, then erase a stripe: the
  // twins' erases drive the EMPTY share under the floor and purge. The
  // batched re-insert then lands on the purged lane.
  const auto fill = MakeKeys<std::uint32_t>(
      scalar.capacity() - scalar.size() - 8, /*salt=*/5000);
  const auto fill_vals = MakeVals<std::uint32_t>(fill);
  for (std::size_t i = 0; i < fill.size(); ++i) {
    scalar.Insert(fill[i], fill_vals[i]);
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      fill.data(), fill_vals.data(), nullptr, fill.size()));
  ExpectSameSwissState(scalar, batch);
  ASSERT_EQ(batch.insert_stats().purges, 0u);
  std::vector<std::uint32_t> erased;
  for (std::size_t i = 1; i < n; i += 4) {
    ASSERT_TRUE(scalar.Erase(keys[i]));
    ASSERT_TRUE(batch.Erase(keys[i]));
    erased.push_back(keys[i]);
  }
  ASSERT_GE(batch.insert_stats().purges, 1u);
  ASSERT_GT(batch.tombstones(), 0u);  // erases after the purge
  ExpectSameSwissState(scalar, batch);
  const auto vals3 = MakeVals<std::uint32_t>(erased);
  want_ok.assign(erased.size(), 0);
  got_ok.assign(erased.size(), 0);
  const std::uint64_t reuses = batch.insert_stats().tombstone_reuses;
  for (std::size_t i = 0; i < erased.size(); ++i) {
    want_ok[i] = scalar.Insert(erased[i], vals3[i]) ? 1 : 0;
  }
  batch.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
      erased.data(), vals3.data(), got_ok.data(), erased.size()));
  EXPECT_EQ(want_ok, got_ok);
  EXPECT_GT(batch.insert_stats().tombstone_reuses, reuses);
  ExpectSameSwissState(scalar, batch);

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

TEST(ConcurrentBatchMutation, ReadersDuringBatchUpdate) {
  // One writer streams BatchUpdate waves over hot keys while readers run
  // BatchLookup and Find on the same keys. Every value is written as
  // tag(key) | version, so a reader can tell a value written for another
  // key (or never written) from one the writer stored for this key.
  ConcurrentCuckooTable32 table(2, 4, 1024, BucketLayout::kInterleaved,
                                /*seed=*/43);
  const std::size_t n = 3000;  // ~0.73 load: many keys in their 2nd bucket
  const auto keys = MakeKeys<std::uint32_t>(n, /*salt=*/5);
  const auto tag = [](std::uint32_t key) {
    return static_cast<std::uint32_t>(Mix64(key)) & 0xFFFF0000u;
  };
  constexpr std::uint32_t kVersions = 300;
  for (const std::uint32_t k : keys) ASSERT_TRUE(table.Insert(k, tag(k)));
  const auto written = [&](std::uint32_t key, std::uint32_t v) {
    return (v & 0xFFFF0000u) == tag(key) && (v & 0xFFFFu) <= kVersions;
  };

  const KernelInfo* kernel = nullptr;
  for (const KernelInfo* k : KernelRegistry::Get().Find(
           KernelQuery{table.spec(), Approach::kHorizontal})) {
    kernel = k;
  }
  if (kernel == nullptr) kernel = KernelRegistry::Get().Scalar(table.spec());
  ASSERT_NE(kernel, nullptr);
  const auto lookup = [&](const TableView& view, const std::uint32_t* ks,
                          std::uint32_t* out_vals, std::uint8_t* out_found,
                          std::size_t len) {
    return kernel->Lookup(view, ProbeBatch::Of(ks, out_vals, out_found, len));
  };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::thread batch_reader([&] {
    std::vector<std::uint32_t> vals(n);
    std::vector<std::uint8_t> found(n);
    while (!stop.load(std::memory_order_acquire)) {
      table.BatchLookup(lookup, keys.data(), vals.data(), found.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        if (!found[i] || !written(keys[i], vals[i])) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::thread key_reader([&] {
    std::uint64_t salt = 1;
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t i = (salt = Mix64(salt + 1)) % n;
      std::uint32_t v = 0;
      if (!table.Find(keys[i], &v) || !written(keys[i], v)) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  constexpr std::size_t kWave = 256;
  std::vector<std::uint32_t> vals(n);
  std::vector<std::uint8_t> ok(kWave);
  std::size_t not_updated = 0;
  for (std::uint32_t version = 1; version <= kVersions; ++version) {
    for (std::size_t i = 0; i < n; ++i) vals[i] = tag(keys[i]) | version;
    for (std::size_t off = 0; off < n; off += kWave) {
      const std::size_t len = std::min(kWave, n - off);
      table.BatchUpdate(MutationBatch<std::uint32_t, std::uint32_t>::Of(
          keys.data() + off, vals.data() + off, ok.data(), len));
      not_updated += static_cast<std::size_t>(
          std::count(ok.begin(), ok.begin() + len, 0));
    }
  }
  stop.store(true, std::memory_order_release);
  batch_reader.join();
  key_reader.join();
  EXPECT_EQ(not_updated, 0u);
  EXPECT_EQ(bad.load(), 0u);
  std::uint32_t v = 0;
  for (const std::uint32_t k : keys) {
    ASSERT_TRUE(table.Find(k, &v));
    ASSERT_EQ(v, tag(k) | kVersions);
  }
}

}  // namespace
}  // namespace simdht
