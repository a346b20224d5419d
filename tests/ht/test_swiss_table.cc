// SwissTable semantics: the inline group scan, probe-invariant
// maintenance, tombstone handling and the in-place purge under sustained
// churn, and the single-writer/concurrent-reader UpdateValue contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "ht/swiss_scan.h"
#include "ht/swiss_table.h"
#include "ht/table_builder.h"
#include "ht/table_io.h"

namespace simdht {
namespace {

// Byte-wise reference for ScanSwissGroup.
GroupScan ReferenceGroupScan(const std::uint8_t* ctrl, std::uint8_t h2) {
  GroupScan r;
  for (unsigned s = 0; s < kSwissGroupSlots; ++s) {
    const std::uint32_t bit = 1u << s;
    if (ctrl[s] == h2) r.match_mask |= bit;
    if (ctrl[s] == kCtrlEmpty) r.empty_mask |= bit;
    if (ctrl[s] == kCtrlEmpty || ctrl[s] == kCtrlTombstone) {
      r.free_mask |= bit;
    }
  }
  return r;
}

// Every valid control byte (FULL 0x00..0x7F, EMPTY, TOMBSTONE) in every
// slot position, against every H2, over uniform and random backgrounds.
TEST(SwissGroupScan, MatchesByteReference) {
  std::vector<std::uint8_t> valid;
  for (unsigned c = 0; c < kCtrlEmpty; ++c) {
    valid.push_back(static_cast<std::uint8_t>(c));
  }
  valid.push_back(kCtrlEmpty);
  valid.push_back(kCtrlTombstone);
  Xoshiro256 rng(13);
  std::uint8_t group[kSwissGroupSlots];
  for (int background = 0; background < 5; ++background) {
    for (std::uint8_t& c : group) {
      c = background == 0   ? kCtrlEmpty
          : background == 1 ? kCtrlTombstone
          : background == 2 ? std::uint8_t{0x2A}
                            : valid[rng.NextBounded(valid.size())];
    }
    for (unsigned pos = 0; pos < kSwissGroupSlots; ++pos) {
      const std::uint8_t saved = group[pos];
      for (const std::uint8_t c : valid) {
        group[pos] = c;
        for (unsigned h2 = 0; h2 < kCtrlEmpty; ++h2) {
          const auto probe = static_cast<std::uint8_t>(h2);
          const GroupScan want = ReferenceGroupScan(group, probe);
          const GroupScan got = ScanSwissGroup(group, probe);
          ASSERT_EQ(want.match_mask, got.match_mask)
              << "pos " << pos << " byte " << int{c} << " h2 " << h2;
          ASSERT_EQ(want.empty_mask, got.empty_mask)
              << "pos " << pos << " byte " << int{c};
          ASSERT_EQ(want.free_mask, got.free_mask)
              << "pos " << pos << " byte " << int{c};
        }
      }
      group[pos] = saved;
    }
  }
}

// Walks every FULL slot of the lane and checks invariant I (swiss_table.h):
// no group from the key's home group up to its resting group holds an
// EMPTY byte. Also checks what the lane implies for the table's counters
// and that the mirror tail repeats the lane start.
template <typename K, typename V>
void ExpectLaneInvariants(const SwissTable<K, V>& table) {
  const std::uint64_t groups = table.num_buckets();
  const HashFamily& hash = table.hash_family();
  std::uint64_t full = 0, tombstones = 0;
  for (std::uint64_t g = 0; g < groups; ++g) {
    for (unsigned s = 0; s < kSwissGroupSlots; ++s) {
      const std::uint8_t c = table.CtrlAt(g * kSwissGroupSlots + s);
      tombstones += c == kCtrlTombstone;
      if (c >= kCtrlEmpty) continue;
      ++full;
      const K key = table.KeyAt(g, s);
      ASSERT_EQ(hash.H2<K>(key), c) << "group " << g << " slot " << s;
      for (std::uint64_t h = hash.Bucket<K>(0, key); h != g;
           h = (h + 1) & (groups - 1)) {
        for (unsigned t = 0; t < kSwissGroupSlots; ++t) {
          ASSERT_NE(table.CtrlAt(h * kSwissGroupSlots + t), kCtrlEmpty)
              << "EMPTY before key " << key << " in group " << h;
        }
      }
    }
  }
  EXPECT_EQ(full, table.size());
  EXPECT_EQ(tombstones, table.tombstones());
  const std::uint8_t* lane = table.store().meta_data();
  for (unsigned i = 0; i < kMetaMirrorBytes; ++i) {
    ASSERT_EQ(lane[table.capacity() + i], lane[i % table.capacity()])
        << "mirror byte " << i;
  }
}

TEST(SwissTable, InsertThenFind) {
  SwissTable32 table(64);
  EXPECT_EQ(table.capacity(), 64u * kSwissGroupSlots);
  for (std::uint32_t k = 1; k <= 500; ++k) {
    ASSERT_TRUE(table.Insert(k, k * 3)) << k;
  }
  EXPECT_EQ(table.size(), 500u);
  for (std::uint32_t k = 1; k <= 500; ++k) {
    std::uint32_t v = 0;
    ASSERT_TRUE(table.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 3);
  }
  std::uint32_t v = 0;
  EXPECT_FALSE(table.Find(501, &v));
  EXPECT_FALSE(table.Find(0xDEADBEEF, &v));
}

TEST(SwissTable, RejectsKeyZero) {
  SwissTable32 table(4);
  EXPECT_FALSE(table.Insert(0, 1));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.insert_stats().failed_inserts, 1u);
}

TEST(SwissTable, InsertOverwritesExistingKey) {
  SwissTable32 table(4);
  ASSERT_TRUE(table.Insert(42, 1));
  ASSERT_TRUE(table.Insert(42, 2));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.insert_stats().inserts, 1u);
  EXPECT_EQ(table.insert_stats().updates, 1u);
  std::uint32_t v = 0;
  ASSERT_TRUE(table.Find(42, &v));
  EXPECT_EQ(v, 2u);
}

TEST(SwissTable, UpdateValueRequiresPresence) {
  SwissTable32 table(4);
  EXPECT_FALSE(table.UpdateValue(7, 1));
  ASSERT_TRUE(table.Insert(7, 1));
  EXPECT_TRUE(table.UpdateValue(7, 99));
  std::uint32_t v = 0;
  ASSERT_TRUE(table.Find(7, &v));
  EXPECT_EQ(v, 99u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SwissTable, EraseRemovesAndFreesSlot) {
  SwissTable32 table(8);
  for (std::uint32_t k = 1; k <= 100; ++k) ASSERT_TRUE(table.Insert(k, k));
  EXPECT_FALSE(table.Erase(101));
  for (std::uint32_t k = 1; k <= 100; ++k) ASSERT_TRUE(table.Erase(k)) << k;
  EXPECT_EQ(table.size(), 0u);
  std::uint32_t v = 0;
  for (std::uint32_t k = 1; k <= 100; ++k) EXPECT_FALSE(table.Find(k, &v));
  // The freed slots must be reusable.
  for (std::uint32_t k = 1; k <= 100; ++k) {
    ASSERT_TRUE(table.Insert(k + 1000, k)) << k;
  }
  EXPECT_EQ(table.size(), 100u);
}

TEST(SwissTable, TombstoneReuseOnReinsert) {
  // Fill one home group completely, erase from the middle (forced
  // TOMBSTONE: the group has no EMPTY byte), then a new insert must land in
  // the tombstoned slot rather than extend the probe chain.
  SwissTable32 table(2);  // 2 groups, 32 slots
  std::vector<std::uint32_t> keys;
  // Saturate the table so at least one group is full.
  for (std::uint32_t k = 1; keys.size() < table.capacity(); ++k) {
    if (table.Insert(k, k)) keys.push_back(k);
    ASSERT_LT(k, 10000u);
  }
  ASSERT_EQ(table.size(), table.capacity());
  const std::uint64_t before = table.insert_stats().tombstone_reuses;
  ASSERT_TRUE(table.Erase(keys[5]));
  // Every slot is FULL or TOMBSTONE now; the next insert must reuse.
  ASSERT_TRUE(table.Insert(99991, 7));
  EXPECT_EQ(table.insert_stats().tombstone_reuses, before + 1);
  EXPECT_EQ(table.size(), table.capacity());
  std::uint32_t v = 0;
  EXPECT_TRUE(table.Find(99991, &v));
  EXPECT_EQ(v, 7u);
}

TEST(SwissTable, FailsOnlyWhenTrulyFull) {
  SwissTable32 table(2);  // 32 slots, no stash/rebuild machinery
  std::uint64_t inserted = 0;
  for (std::uint32_t k = 1; k <= 32; ++k) {
    ASSERT_TRUE(table.Insert(k, k)) << k;
    ++inserted;
  }
  EXPECT_EQ(table.size(), 32u);
  EXPECT_FALSE(table.Insert(33, 33));
  EXPECT_EQ(table.insert_stats().failed_inserts, 1u);
  // Overwrites still work at 100% load.
  EXPECT_TRUE(table.Insert(5, 500));
  std::uint32_t v = 0;
  ASSERT_TRUE(table.Find(5, &v));
  EXPECT_EQ(v, 500u);
}

TEST(SwissTable, ProbeInvariantHoldsUnderChurn) {
  // Invariant I (swiss_table.h): for every stored key, no group strictly
  // before its resting group on the probe path contains an EMPTY byte.
  // Random insert/erase churn must never break it — the SIMD kernels'
  // early termination is unsound the moment it does.
  SwissTable32 table(8);  // 128 slots
  Xoshiro256 rng(99);
  std::vector<std::uint32_t> live;
  std::unordered_map<std::uint32_t, std::uint32_t> model;
  for (int step = 0; step < 4000; ++step) {
    const bool insert = live.size() < 100 || (rng.Next() & 1) != 0;
    if (insert) {
      const auto key =
          static_cast<std::uint32_t>(rng.Next() % 100000) + 1;
      const auto val = static_cast<std::uint32_t>(rng.Next());
      if (table.Insert(key, val)) {
        if (model.emplace(key, val).second) {
          live.push_back(key);
        } else {
          model[key] = val;
        }
      }
    } else if (!live.empty()) {
      const std::size_t i = rng.NextBounded(live.size());
      ASSERT_TRUE(table.Erase(live[i]));
      model.erase(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  // Model equivalence: everything the model holds is findable with the
  // right value, and erased keys are gone.
  for (const auto& [key, val] : model) {
    std::uint32_t v = 0;
    ASSERT_TRUE(table.Find(key, &v)) << key;
    ASSERT_EQ(v, val) << key;
  }
  EXPECT_EQ(table.size(), model.size());
  ExpectLaneInvariants(table);
}

// Groups a probe for the absent `key` visits: from its home group through
// the first group holding an EMPTY byte (all of them if none does).
std::uint64_t MissProbeGroups(const SwissTable32& table, std::uint32_t key) {
  const std::uint64_t groups = table.num_buckets();
  std::uint64_t g = table.hash_family().Bucket<std::uint32_t>(0, key);
  for (std::uint64_t visited = 1; visited <= groups; ++visited) {
    for (unsigned s = 0; s < kSwissGroupSlots; ++s) {
      if (table.CtrlAt(g * kSwissGroupSlots + s) == kCtrlEmpty) {
        return visited;
      }
    }
    g = (g + 1) & (groups - 1);
  }
  return groups;
}

// Scrambles churn ids into keys, like the benchmark's key space: a
// bijection on uint32 that maps only 0 to 0.
std::uint32_t ChurnKey(std::uint32_t id) {
  id ^= id >> 16;
  id *= 0x7FEB352Du;
  id ^= id >> 15;
  id *= 0x846CA68Bu;
  id ^= id >> 16;
  return id;
}

// Sustained churn on one table, never rebuilt: each step inserts the keys
// of the next 64 ids with one BatchInsert and erases the 64 oldest, so
// every cycle replaces the whole live set. Without the purge the EMPTY
// share only falls, and missing-key probes grow to whole-table scans
// within a few cycles.
void ChurnSoak(HashKind kind) {
  SCOPED_TRACE(kind == HashKind::kWyHash ? "wyhash" : "multiply-shift");
  constexpr std::size_t kStep = 64;
  constexpr int kCycles = 8;
  SwissTable32 table(1024, /*seed=*/41, kind);  // 16 Ki slots
  const std::uint64_t cap = table.capacity();
  const std::uint64_t live =
      static_cast<std::uint64_t>(0.8 * static_cast<double>(cap)) / kStep *
      kStep;
  auto val_of = [](std::uint32_t key) { return key * 7 + 1; };
  std::uint32_t keys[kStep], vals[kStep];
  std::uint8_t ok[kStep];
  std::uint32_t lo = 1, hi = 1;  // live ids are [lo, hi)
  auto insert_next = [&] {
    for (std::size_t i = 0; i < kStep; ++i) {
      keys[i] = ChurnKey(hi + static_cast<std::uint32_t>(i));
      vals[i] = val_of(keys[i]);
    }
    table.BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
        keys, vals, ok, kStep));
    for (std::size_t i = 0; i < kStep; ++i) ASSERT_EQ(ok[i], 1) << keys[i];
    hi += kStep;
  };
  while (hi - lo < live) insert_next();
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    for (std::uint64_t step = 0; step < live / kStep; ++step) {
      insert_next();
      for (std::size_t i = 0; i < kStep; ++i) {
        ASSERT_TRUE(table.Erase(ChurnKey(lo++)));
      }
    }
    if (cycle == 0) EXPECT_EQ(table.insert_stats().purges, 0u);
    ASSERT_EQ(table.size(), live);
    std::uint64_t empty = 0;
    for (std::uint64_t s = 0; s < cap; ++s) {
      empty += table.CtrlAt(s) == kCtrlEmpty;
    }
    EXPECT_GE(empty * kSwissEmptyFloorDivisor, cap) << "EMPTY " << empty;
    std::uint64_t probed = 0;
    constexpr std::uint32_t kMisses = 1024;
    for (std::uint32_t i = 0; i < kMisses; ++i) {
      probed += MissProbeGroups(table, ChurnKey(0x40000000u + i));
    }
    EXPECT_LE(probed, 32u * kMisses) << "mean groups per missing-key probe";
    for (std::uint32_t id = lo; id < hi; ++id) {
      std::uint32_t v = 0;
      ASSERT_TRUE(table.Find(ChurnKey(id), &v)) << id;
      ASSERT_EQ(v, val_of(ChurnKey(id))) << id;
    }
    for (std::uint32_t id = lo - static_cast<std::uint32_t>(live); id < lo;
         ++id) {
      std::uint32_t v = 0;
      ASSERT_FALSE(table.Find(ChurnKey(id), &v)) << id;
    }
    ExpectLaneInvariants(table);
  }
  EXPECT_GE(table.insert_stats().purges, 1u);
}

TEST(SwissTable, ChurnSoakKeepsProbesShort) {
  ChurnSoak(HashKind::kMultiplyShift);
  ChurnSoak(HashKind::kWyHash);
}

// Random churn near 0.9 occupancy against a std::unordered_map oracle.
// After each purge every oracle key is found with its value, erased keys
// miss, the lane is consistent, and a snapshot round trip reproduces the
// purged table byte for byte.
TEST(SwissTable, PurgeMatchesOracle) {
  SwissTable32 table(32, /*seed=*/5);  // 512 slots
  const std::uint64_t target = table.capacity() * 9 / 10;
  Xoshiro256 rng(7);
  std::unordered_map<std::uint32_t, std::uint32_t> model;
  std::vector<std::uint32_t> live, erased;
  std::uint64_t purges = 0;
  for (int step = 0; step < 200000 && purges < 4; ++step) {
    if (live.size() < target) {
      const auto key = static_cast<std::uint32_t>(rng.NextBounded(1 << 20)) + 1;
      const auto val = static_cast<std::uint32_t>(rng.Next());
      ASSERT_TRUE(table.Insert(key, val));
      if (model.emplace(key, val).second) {
        live.push_back(key);
      } else {
        model[key] = val;
      }
      continue;
    }
    const std::size_t i = rng.NextBounded(live.size());
    ASSERT_TRUE(table.Erase(live[i]));
    model.erase(live[i]);
    erased.push_back(live[i]);
    live[i] = live.back();
    live.pop_back();
    if (table.insert_stats().purges == purges) continue;
    purges = table.insert_stats().purges;
    SCOPED_TRACE("purge " + std::to_string(purges));
    EXPECT_EQ(table.tombstones(), 0u);
    ASSERT_EQ(table.size(), model.size());
    for (const auto& [key, val] : model) {
      std::uint32_t v = 0;
      ASSERT_TRUE(table.Find(key, &v)) << key;
      ASSERT_EQ(v, val) << key;
    }
    for (const std::uint32_t key : erased) {
      std::uint32_t v = 0;
      if (model.count(key) == 0) ASSERT_FALSE(table.Find(key, &v)) << key;
    }
    ExpectLaneInvariants(table);

    std::stringstream stream;
    ASSERT_TRUE(SaveSwissTable(table, stream));
    auto loaded = LoadSwissTable<std::uint32_t, std::uint32_t>(stream);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->size(), table.size());
    EXPECT_EQ(loaded->tombstones(), 0u);
    EXPECT_EQ(std::memcmp(loaded->raw_data(), table.raw_data(),
                          table.table_bytes()),
              0);
    EXPECT_EQ(std::memcmp(loaded->store().meta_data(),
                          table.store().meta_data(),
                          table.store().meta_bytes()),
              0);
    for (const auto& [key, val] : model) {
      std::uint32_t v = 0;
      ASSERT_TRUE(loaded->Find(key, &v)) << key;
      ASSERT_EQ(v, val) << key;
    }
  }
  EXPECT_EQ(purges, 4u);
}

TEST(SwissTable, WyHashFamilyEndToEnd) {
  SwissTable32 table(64, /*seed=*/7, HashKind::kWyHash);
  EXPECT_EQ(table.hash_family().kind, HashKind::kWyHash);
  for (std::uint32_t k = 1; k <= 400; ++k) ASSERT_TRUE(table.Insert(k, ~k));
  for (std::uint32_t k = 1; k <= 400; ++k) {
    std::uint32_t v = 0;
    ASSERT_TRUE(table.Find(k, &v)) << k;
    EXPECT_EQ(v, ~k);
  }
}

TEST(SwissTable, FillToLoadFactorBuilds) {
  SwissTable32 table(256);
  const auto build = FillToLoadFactor(&table, 0.85, 5);
  EXPECT_GE(table.load_factor(), 0.84);
  EXPECT_EQ(build.inserted_keys.size(), table.size());
  for (std::uint32_t key : build.inserted_keys) {
    std::uint32_t v = 0;
    ASSERT_TRUE(table.Find(key, &v)) << key;
  }
}

TEST(SwissTable, SixteenBitAndSixtyFourBitCombos) {
  SwissTable16x32 t16(16);
  for (std::uint16_t k = 1; k <= 200; ++k) ASSERT_TRUE(t16.Insert(k, k * 2u));
  std::uint32_t v32 = 0;
  ASSERT_TRUE(t16.Find(100, &v32));
  EXPECT_EQ(v32, 200u);

  SwissTable64 t64(16);
  for (std::uint64_t k = 1; k <= 200; ++k) {
    ASSERT_TRUE(t64.Insert(k << 40, k));
  }
  std::uint64_t v64 = 0;
  ASSERT_TRUE(t64.Find(std::uint64_t{100} << 40, &v64));
  EXPECT_EQ(v64, 100u);
}

// Named "UpdateValue" so the TSan preset's test filter picks it up: one
// writer updating values in place while readers Find concurrently — the
// same single-aligned-word-store contract CuckooTable::UpdateValue makes.
TEST(SwissTable, ConcurrentReadersWithUpdateValueWriter) {
  SwissTable32 table(64);
  constexpr std::uint32_t kKeys = 512;
  for (std::uint32_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(table.Insert(k, 1));
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(3);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto key =
          static_cast<std::uint32_t>(rng.NextBounded(kKeys)) + 1;
      table.UpdateValue(key, static_cast<std::uint32_t>(rng.Next()) | 1u);
    }
  });
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> misses{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(100 + r);
      for (int i = 0; i < 20000; ++i) {
        const auto key =
            static_cast<std::uint32_t>(rng.NextBounded(kKeys)) + 1;
        std::uint32_t v = 0;
        if (!table.Find(key, &v) || v == 0) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  // Resident keys never disappear and values are never torn to zero.
  EXPECT_EQ(misses.load(), 0u);
}

}  // namespace
}  // namespace simdht
