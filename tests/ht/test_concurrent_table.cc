// ConcurrentCuckooTable (CuckooTable's SeqlockWriters policy):
// single-threaded semantics, the seqlock counters each writer policy
// publishes, and reader/writer and batch-lookup/writer race tests.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "ht/cuckoo_table.h"
#include "simd/kernel.h"

namespace simdht {
namespace {

TEST(ConcurrentTable, BasicSemantics) {
  ConcurrentCuckooTable32 table(2, 4, 1024, BucketLayout::kInterleaved);
  EXPECT_TRUE(table.Insert(1, 10));
  EXPECT_TRUE(table.Insert(2, 20));
  std::uint32_t val = 0;
  EXPECT_TRUE(table.Find(1, &val));
  EXPECT_EQ(val, 10u);
  EXPECT_TRUE(table.Insert(1, 11));  // overwrite
  EXPECT_TRUE(table.Find(1, &val));
  EXPECT_EQ(val, 11u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.UpdateValue(2, 21));
  EXPECT_TRUE(table.Find(2, &val));
  EXPECT_EQ(val, 21u);
  EXPECT_TRUE(table.Erase(1));
  EXPECT_FALSE(table.Find(1, &val));
  EXPECT_EQ(table.size(), 1u);
}

TEST(ConcurrentTable, BfsInsertReachesHighLoadFactor) {
  // BFS path-search must reach the same occupancy class as random-walk:
  // (2,4) BCHT beyond 90%.
  ConcurrentCuckooTable32 table(2, 4, 512, BucketLayout::kInterleaved);
  Xoshiro256 rng(5);
  std::unordered_map<std::uint32_t, std::uint32_t> shadow;
  for (;;) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    const auto val = static_cast<std::uint32_t>(rng.Next());
    if (shadow.count(key)) continue;
    if (!table.Insert(key, val)) break;
    shadow[key] = val;
  }
  EXPECT_GT(table.load_factor(), 0.9);
  EXPECT_EQ(table.size(), shadow.size());
  for (const auto& [key, val] : shadow) {
    std::uint32_t got = 0;
    ASSERT_TRUE(table.Find(key, &got)) << key;
    ASSERT_EQ(got, val) << key;
  }
}

TEST(ConcurrentTable, N3Layout64Bit) {
  ConcurrentCuckooTable64 table(3, 1, 2048, BucketLayout::kInterleaved);
  Xoshiro256 rng(6);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1500; ++i) {
    const std::uint64_t key = rng.Next() | 1;
    if (table.Insert(key, key * 3)) keys.push_back(key);
  }
  EXPECT_GT(table.load_factor(), 0.6);
  for (std::uint64_t key : keys) {
    std::uint64_t val = 0;
    ASSERT_TRUE(table.Find(key, &val));
    ASSERT_EQ(val, key * 3);
  }
}

// --- what each writer policy publishes -------------------------------------

// Every counter a table publishes through: the write epoch, StashVersion and
// all bucket stripes.
struct SeqlockCounters {
  std::uint64_t epoch = 0;
  std::uint64_t stash = 0;
  std::vector<std::uint64_t> stripes;

  static SeqlockCounters Of(const TableStore& store) {
    SeqlockCounters c;
    c.epoch = store.EpochBegin();
    c.stash = store.StashVersion().load();
    for (unsigned i = 0; i < TableStore::kVersionStripes; ++i) {
      c.stripes.push_back(store.StripeFor(i).load());
    }
    return c;
  }
};

// How far one write advances each counter under SeqlockWriters.
struct Publication {
  std::uint64_t epoch = 0;
  std::uint64_t stash = 0;
  std::uint64_t every_stripe = 0;
  std::map<std::uint64_t, std::uint64_t> stripes;  // stripe -> advance

  Publication& Bracket(std::uint64_t bucket) {
    stripes[bucket & (TableStore::kVersionStripes - 1)] += 2;
    return *this;
  }
};

// A structural write: the epoch around a slot write in one bucket.
Publication EpochAndBucket(std::uint64_t bucket) {
  Publication p;
  p.epoch = 2;
  return p.Bracket(bucket);
}

// An insert that replays `path`: the epoch around the whole chain, both
// buckets of every hop, then the key's own bucket.
Publication AlongPath(const std::vector<PathStep>& path) {
  Publication p;
  p.epoch = 2;
  for (std::size_t i = path.size() - 1; i > 0; --i) {
    p.Bracket(path[i].bucket).Bracket(path[i - 1].bucket);
  }
  return p.Bracket(path.front().bucket);
}

// Checks after each write what the table published: nothing at all under
// SingleWriter, exactly the expected advance (ending even) under
// SeqlockWriters.
template <typename Table>
class PublicationChecker {
 public:
  static constexpr bool kSeqlocked =
      std::is_same_v<Table, ConcurrentCuckooTable32>;

  explicit PublicationChecker(const Table& table)
      : table_(table), expected_(SeqlockCounters::Of(table.store())) {}

  void Expect(const std::string& what, const Publication& want) {
    if constexpr (kSeqlocked) {
      expected_.epoch += want.epoch;
      expected_.stash += want.stash;
      for (auto& v : expected_.stripes) v += want.every_stripe;
      for (const auto& [stripe, advance] : want.stripes) {
        expected_.stripes[stripe] += advance;
      }
    }
    const SeqlockCounters now = SeqlockCounters::Of(table_.store());
    EXPECT_EQ(now.epoch, expected_.epoch) << what << ": write epoch";
    EXPECT_EQ(now.stash, expected_.stash) << what << ": StashVersion";
    unsigned wrong = 0, odd = 0;
    for (unsigned i = 0; i < TableStore::kVersionStripes; ++i) {
      wrong += now.stripes[i] != expected_.stripes[i];
      odd += now.stripes[i] & 1;
    }
    EXPECT_EQ(wrong, 0u) << what << ": stripes off their expected value";
    EXPECT_EQ(odd, 0u) << what << ": stripes left odd";
    EXPECT_EQ(now.epoch & 1, 0u) << what;
    EXPECT_EQ(now.stash & 1, 0u) << what;
    expected_ = now;  // report each write's mistake once
  }

 private:
  const Table& table_;
  SeqlockCounters expected_;
};

std::uint32_t FreshKey(std::uint32_t i) {
  return static_cast<std::uint32_t>((i + 1) * 2654435761u) | 1;
}

template <typename Table>
std::uint64_t BucketHolding(const Table& table, std::uint32_t key) {
  for (unsigned w = 0; w < table.spec().ways; ++w) {
    const std::uint64_t b = table.store().template Bucket<std::uint32_t>(w, key);
    for (unsigned s = 0; s < table.spec().slots; ++s) {
      if (table.KeyAt(b, s) == key) return b;
    }
  }
  ADD_FAILURE() << "key " << key << " is in no bucket";
  return 0;
}

// Drives one write of every kind through a fresh table of type `Table`.
template <typename Table>
void DriveEveryWriteKind() {
  std::uint32_t next = 0;
  {
    Table table(2, 4, 256, BucketLayout::kInterleaved, 3);
    PublicationChecker<Table> check(table);
    std::vector<PathStep> path;

    const std::uint32_t first = FreshKey(next++);
    ASSERT_TRUE(table.FindInsertionPath(first, &path));
    ASSERT_EQ(path.size(), 1u);
    ASSERT_TRUE(table.Insert(first, 1));
    check.Expect("direct insert", AlongPath(path));

    ASSERT_TRUE(table.Insert(first, 2));
    check.Expect("duplicate overwrite", EpochAndBucket(
                                            BucketHolding(table, first)));

    // A light batch: every fresh key lands directly, plus one duplicate.
    std::vector<std::uint32_t> keys;
    for (int i = 0; i < 200; ++i) keys.push_back(FreshKey(next++));
    keys.push_back(first);
    const std::vector<std::uint32_t> vals(keys.size(), 5);
    const InsertStats before = table.insert_stats();
    table.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
        keys.data(), vals.data(), nullptr, keys.size()));
    ASSERT_EQ(table.insert_stats().direct_inserts - before.direct_inserts,
              200u);
    ASSERT_EQ(table.insert_stats().path_inserts, before.path_inserts);
    Publication batch;
    for (std::uint32_t k : keys) {
      batch.epoch += 2;
      batch.Bracket(BucketHolding(table, k));
    }
    check.Expect("BatchInsert", batch);

    // Keep inserting one key at a time until one needs an eviction chain.
    bool saw_path = false;
    while (!saw_path && table.load_factor() < 0.97) {
      const std::uint32_t k = FreshKey(next++);
      ASSERT_TRUE(table.FindInsertionPath(k, &path));
      ASSERT_TRUE(table.Insert(k, 7));
      saw_path = path.size() > 1;
      check.Expect(saw_path ? "path insert" : "direct insert",
                   AlongPath(path));
    }
    ASSERT_TRUE(saw_path);

    std::vector<std::uint32_t> updates(keys.begin(), keys.begin() + 50);
    updates.push_back(0x7FFFFFFEu);  // never inserted
    const std::vector<std::uint32_t> new_vals(updates.size(), 9);
    std::vector<std::uint8_t> ok(updates.size());
    table.BatchUpdate(MutationBatch<std::uint32_t, std::uint32_t>::Of(
        updates.data(), new_vals.data(), ok.data(), updates.size()));
    ASSERT_EQ(ok.back(), 0);
    Publication update;
    for (std::size_t i = 0; i + 1 < updates.size(); ++i) {
      ASSERT_EQ(ok[i], 1);
      update.Bracket(BucketHolding(table, updates[i]));
    }
    check.Expect("BatchUpdate", update);

    ASSERT_TRUE(table.UpdateValue(first, 11));
    check.Expect("UpdateValue",
                 Publication{}.Bracket(BucketHolding(table, first)));

    const std::uint64_t home = BucketHolding(table, first);
    ASSERT_TRUE(table.Erase(first));
    check.Expect("bucket erase", EpochAndBucket(home));
  }
  {
    // A (2,1) table saturates near half full: spills, then a rebuild.
    Table table(2, 1, 256, BucketLayout::kInterleaved, 17);
    PublicationChecker<Table> check(table);
    std::vector<PathStep> path;
    bool saw_spill = false, saw_rebuild = false;
    for (int i = 0; i < 4000 && !(saw_rebuild && table.stash_count() > 0);
         ++i) {
      const std::uint32_t k = FreshKey(next++);
      const bool has_path = table.FindInsertionPath(k, &path);
      const InsertStats before = table.insert_stats();
      table.Insert(k, 3);
      const InsertStats& after = table.insert_stats();
      if (after.rebuilds > before.rebuilds) {
        saw_rebuild = true;
        Publication rebuild;
        rebuild.epoch = 2;
        rebuild.stash = 2;
        rebuild.every_stripe = 2;
        check.Expect("rebuild", rebuild);
      } else if (after.stash_inserts > before.stash_inserts) {
        saw_spill = true;
        check.Expect("stash spill", Publication{});
      } else if (after.failed_inserts > before.failed_inserts) {
        check.Expect("failed insert", Publication{});
      } else {
        ASSERT_TRUE(has_path);
        check.Expect("insert", AlongPath(path));
      }
    }
    ASSERT_TRUE(saw_spill);
    ASSERT_TRUE(saw_rebuild);
    ASSERT_GT(table.stash_count(), 0u);

    const auto stashed =
        static_cast<std::uint32_t>(table.store().stash_at(0).key);
    ASSERT_TRUE(table.Erase(stashed));
    Publication stash_erase;
    stash_erase.epoch = 2;
    stash_erase.stash = 2;
    check.Expect("stash erase", stash_erase);
  }
}

TEST(CuckooTable, SingleWriterPublishesNothing) {
  DriveEveryWriteKind<CuckooTable32>();
}

// The parent-commit publication order, write by write: catches a bracket
// the racing tests below would only trip over occasionally.
TEST(ConcurrentTable, WritesPublishThroughSeqlock) {
  DriveEveryWriteKind<ConcurrentCuckooTable32>();
}

// The headline property: readers racing full structural inserts (with BFS
// displacement chains!) never see a resident key as missing and never see
// a value not written for that key.
TEST(ConcurrentTable, ReadersNeverMissResidentKeysDuringInserts) {
  ConcurrentCuckooTable32 table(2, 4, 4096, BucketLayout::kInterleaved);

  // Phase 1 keys are resident before readers start and are never touched
  // again; the writer then inserts phase-2 keys, displacing phase-1 ones.
  std::vector<std::uint32_t> phase1;
  Xoshiro256 rng(7);
  while (phase1.size() < 4000) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    if (table.Insert(key, key ^ 0xF00D)) phase1.push_back(key);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0}, wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 prng(t + 100);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t key = phase1[prng.NextBounded(phase1.size())];
        std::uint32_t val = 0;
        if (!table.Find(key, &val)) {
          misses.fetch_add(1);
        } else if (val != (key ^ 0xF00D)) {
          wrong.fetch_add(1);
        }
      }
    });
  }

  // Writer: displacement-heavy inserts into the same buckets.
  Xoshiro256 wrng(8);
  for (int i = 0; i < 8000; ++i) {
    table.Insert(static_cast<std::uint32_t>(wrng.Next()) | 1,
                 static_cast<std::uint32_t>(i));
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(ConcurrentTable, BatchLookupRacingWriter) {
  ConcurrentCuckooTable32 table(3, 1, 8192, BucketLayout::kInterleaved);
  std::vector<std::uint32_t> resident;
  Xoshiro256 rng(9);
  while (resident.size() < 6000) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    if (table.Insert(key, key + 1)) resident.push_back(key);
  }

  const KernelInfo* kernel = nullptr;
  for (const KernelInfo* k : KernelRegistry::Get().Find(
           KernelQuery{table.spec(), Approach::kVertical})) {
    kernel = k;  // any supported vertical kernel
  }
  if (kernel == nullptr) kernel = KernelRegistry::Get().Scalar(table.spec());
  ASSERT_NE(kernel, nullptr);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 wrng(10);
    while (!stop.load(std::memory_order_relaxed)) {
      table.Insert(static_cast<std::uint32_t>(wrng.Next()) | 1, 77);
    }
  });

  std::vector<std::uint32_t> vals(resident.size());
  std::vector<std::uint8_t> found(resident.size());
  for (int round = 0; round < 50; ++round) {
    const auto lookup = [&](const TableView& view, const std::uint32_t* keys,
                            std::uint32_t* out_vals, std::uint8_t* out_found,
                            std::size_t n) {
      return kernel->Lookup(view,
                            ProbeBatch::Of(keys, out_vals, out_found, n));
    };
    const std::uint64_t hits = table.BatchLookup(
        lookup, resident.data(), vals.data(), found.data(), resident.size());
    ASSERT_EQ(hits, resident.size()) << "round " << round;
    for (std::size_t i = 0; i < resident.size(); ++i) {
      ASSERT_TRUE(found[i]);
      ASSERT_EQ(vals[i], resident[i] + 1);
    }
  }
  stop.store(true);
  writer.join();
}

// Erases racing batch lookups: after the writer publishes "first E doomed
// keys erased", a batch that starts later must not report any of them as
// found — a stale hit would mean a torn view slipped past epoch
// validation. Untouched keys stay found with exact values throughout.
TEST(ConcurrentTable, EraseRacingBatchLookupNeverYieldsStaleHits) {
  ConcurrentCuckooTable32 table(2, 4, 8192, BucketLayout::kInterleaved, 13);
  Xoshiro256 rng(14);
  std::vector<std::uint32_t> stable, doomed;
  while (stable.size() < 3000) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    if (table.Insert(key, key ^ 0xBEEF)) stable.push_back(key);
  }
  while (doomed.size() < 2000) {
    // Disjoint from `stable`: high bit set.
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 0x80000001u;
    if (table.Insert(key, key + 1)) doomed.push_back(key);
  }

  std::vector<std::uint32_t> probes = stable;
  probes.insert(probes.end(), doomed.begin(), doomed.end());
  const KernelInfo* kernel = nullptr;
  for (const KernelInfo* k : KernelRegistry::Get().Find(
           KernelQuery{table.spec(), Approach::kHorizontal})) {
    kernel = k;
  }
  if (kernel == nullptr) kernel = KernelRegistry::Get().Scalar(table.spec());
  ASSERT_NE(kernel, nullptr);
  const auto lookup = [&](const TableView& view, const std::uint32_t* keys,
                          std::uint32_t* out_vals, std::uint8_t* out_found,
                          std::size_t n) {
    return kernel->Lookup(view, ProbeBatch::Of(keys, out_vals, out_found, n));
  };

  std::atomic<std::size_t> erased{0};
  std::thread writer([&] {
    for (std::size_t i = 0; i < doomed.size(); ++i) {
      table.Erase(doomed[i]);
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
        ASSERT_EQ(vals[pos], doomed[i] + 1) << "round " << round;
      }
    }
  }
  writer.join();

  const std::uint64_t hits = table.BatchLookup(
      lookup, probes.data(), vals.data(), found.data(), probes.size());
  EXPECT_EQ(hits, stable.size());
  EXPECT_EQ(table.size(), stable.size());
}

// Readers racing the engine's recovery tiers: the writer drives a (2,1)
// table all the way through stash spills and reseed-and-rebuild passes
// (which republish the entire arena under the write epoch) while readers
// hammer a fixed anchor set. An anchor observed missing or with a foreign
// value means a reader saw the rebuild mid-copy.
TEST(ConcurrentTable, ReadersSurviveStashSpillsAndRebuilds) {
  ConcurrentCuckooTable32 table(2, 1, 1024, BucketLayout::kInterleaved, 17);

  std::vector<std::uint32_t> anchors;
  Xoshiro256 rng(18);
  while (anchors.size() < 300) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    if (table.Insert(key, key ^ 0xCAFE)) anchors.push_back(key);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0}, wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 prng(t + 200);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t key = anchors[prng.NextBounded(anchors.size())];
        std::uint32_t val = 0;
        if (!table.Find(key, &val)) {
          misses.fetch_add(1);
        } else if (val != (key ^ 0xCAFE)) {
          wrong.fetch_add(1);
        }
      }
    });
  }

  // Writer: saturate the table. Failures are expected near the threshold;
  // keep offering fresh keys so the stash fills and rebuilds trigger.
  Xoshiro256 wrng(19);
  unsigned failures = 0;
  for (int i = 0; i < 4000 && failures < 32; ++i) {
    if (!table.Insert(static_cast<std::uint32_t>(wrng.Next()) | 1,
                      static_cast<std::uint32_t>(i))) {
      ++failures;
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(table.insert_stats().rebuilds, 1u);
  EXPECT_GT(table.stash_count(), 0u);
  for (std::uint32_t key : anchors) {
    std::uint32_t val = 0;
    ASSERT_TRUE(table.Find(key, &val));
    ASSERT_EQ(val, key ^ 0xCAFE);
  }
}

TEST(ConcurrentTable, InsertFailsCleanlyWhenFull) {
  // Non-bucketized 2-way saturates near 50% under the paper's protocol
  // (insert until the FIRST failure); the fill must stop rather than hang,
  // and everything inserted must remain intact. (Note: continuing past
  // failures with fresh keys can legally push occupancy higher — each new
  // key only needs its own augmenting path.)
  ConcurrentCuckooTable32 table(2, 1, 256, BucketLayout::kInterleaved);
  std::vector<std::uint32_t> ok;
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    if (!table.Insert(key, key)) break;
    ok.push_back(key);
  }
  EXPECT_LT(table.load_factor(), 0.85);
  EXPECT_GT(table.load_factor(), 0.3);
  for (std::uint32_t key : ok) {
    std::uint32_t val = 0;
    ASSERT_TRUE(table.Find(key, &val));
    ASSERT_EQ(val, key);
  }
}

}  // namespace
}  // namespace simdht
