// Snapshot round-trip tests, unsharded and sharded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "ht/table_builder.h"
#include "ht/table_io.h"

namespace simdht {
namespace {

TEST(TableIo, RoundTripPreservesEverything) {
  CuckooTable32 original(2, 4, 1024, BucketLayout::kInterleaved, 77);
  auto build = FillToLoadFactor(&original, 0.85, 3);
  ASSERT_FALSE(build.inserted_keys.empty());

  std::stringstream stream;
  ASSERT_TRUE(SaveTable(original, stream));

  auto loaded = LoadTable<std::uint32_t, std::uint32_t>(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->num_buckets(), original.num_buckets());
  EXPECT_EQ(loaded->spec().ways, 2u);
  EXPECT_EQ(loaded->spec().slots, 4u);

  // Every key resolves identically (same hash family + same bytes).
  for (std::uint32_t key : build.inserted_keys) {
    std::uint32_t a = 0, b = 0;
    ASSERT_TRUE(original.Find(key, &a));
    ASSERT_TRUE(loaded->Find(key, &b));
    ASSERT_EQ(a, b);
  }
  EXPECT_EQ(std::memcmp(original.raw_data(), loaded->raw_data(),
                        original.table_bytes()),
            0);
}

TEST(TableIo, SeededHashFamilySurvives) {
  // A non-default hash family (seed != 0) must be restored; otherwise
  // lookups would probe the wrong buckets.
  CuckooTable64 original(3, 1, 512, BucketLayout::kInterleaved, 12345);
  ASSERT_TRUE(original.Insert(999, 111));

  std::stringstream stream;
  ASSERT_TRUE(SaveTable(original, stream));
  auto loaded = LoadTable<std::uint64_t, std::uint64_t>(stream);
  ASSERT_TRUE(loaded.has_value());
  std::uint64_t val = 0;
  ASSERT_TRUE(loaded->Find(999, &val));
  EXPECT_EQ(val, 111u);
}

TEST(TableIo, RejectsWrongWidths) {
  CuckooTable32 table(2, 4, 64, BucketLayout::kInterleaved);
  std::stringstream stream;
  ASSERT_TRUE(SaveTable(table, stream));
  // Loading a k32/v32 snapshot as k64/v64 must fail cleanly.
  EXPECT_FALSE(
      (LoadTable<std::uint64_t, std::uint64_t>(stream)).has_value());
}

TEST(TableIo, RejectsGarbageAndTruncation) {
  std::stringstream garbage("not a snapshot at all");
  EXPECT_FALSE(
      (LoadTable<std::uint32_t, std::uint32_t>(garbage)).has_value());

  CuckooTable32 table(2, 4, 64, BucketLayout::kInterleaved);
  std::stringstream stream;
  ASSERT_TRUE(SaveTable(table, stream));
  const std::string bytes = stream.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(
      (LoadTable<std::uint32_t, std::uint32_t>(truncated)).has_value());
}

TEST(TableIo, FileRoundTrip) {
  CuckooTable16x32 table(2, 8, 128, BucketLayout::kSplit);
  ASSERT_TRUE(table.Insert(42, 4242));
  const std::string path = "/tmp/simdht_test_snapshot.bin";
  ASSERT_TRUE(SaveTableToFile(table, path));
  auto loaded = LoadTableFromFile<std::uint16_t, std::uint32_t>(path);
  ASSERT_TRUE(loaded.has_value());
  std::uint32_t val = 0;
  ASSERT_TRUE(loaded->Find(42, &val));
  EXPECT_EQ(val, 4242u);
  std::remove(path.c_str());
  EXPECT_FALSE(
      (LoadTableFromFile<std::uint16_t, std::uint32_t>("/no/such/file"))
          .has_value());
}

// --- Swiss snapshots ---

TEST(TableIo, SwissRoundTripPreservesEverything) {
  SwissTable32 original(128, /*seed=*/77);
  auto build = FillToLoadFactor(&original, 0.85, 3);
  ASSERT_FALSE(build.inserted_keys.empty());
  // Erase a slice so the snapshot carries TOMBSTONE and EMPTY bytes, not
  // just FULL ones.
  for (std::size_t i = 0; i < build.inserted_keys.size(); i += 5) {
    ASSERT_TRUE(original.Erase(build.inserted_keys[i]));
  }

  std::stringstream stream;
  ASSERT_TRUE(SaveSwissTable(original, stream));
  auto loaded = LoadSwissTable<std::uint32_t, std::uint32_t>(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->num_buckets(), original.num_buckets());
  EXPECT_EQ(loaded->hash_family().kind, HashKind::kMultiplyShift);

  for (std::size_t i = 0; i < build.inserted_keys.size(); ++i) {
    const std::uint32_t key = build.inserted_keys[i];
    std::uint32_t a = 0, b = 0;
    const bool in_a = original.Find(key, &a);
    const bool in_b = loaded->Find(key, &b);
    ASSERT_EQ(in_a, in_b) << key;
    if (in_a) ASSERT_EQ(a, b) << key;
    ASSERT_EQ(in_a, i % 5 != 0) << key;
  }
  // The control lane (incl. tombstones) must be byte-identical.
  for (std::uint64_t s = 0; s < original.store().num_slots(); ++s) {
    ASSERT_EQ(original.CtrlAt(s), loaded->CtrlAt(s)) << "slot " << s;
  }
  ASSERT_GT(original.tombstones(), 0u);
  EXPECT_EQ(loaded->tombstones(), original.tombstones());
  EXPECT_EQ(std::memcmp(original.raw_data(), loaded->raw_data(),
                        original.table_bytes()),
            0);
}

TEST(TableIo, SwissWyHashKindSurvives) {
  SwissTable32 original(64, /*seed=*/91, HashKind::kWyHash);
  for (std::uint32_t k = 1; k <= 300; ++k) {
    ASSERT_TRUE(original.Insert(k, k ^ 0xABCD));
  }
  std::stringstream stream;
  ASSERT_TRUE(SaveSwissTable(original, stream));
  auto loaded = LoadSwissTable<std::uint32_t, std::uint32_t>(stream);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->hash_family().kind, HashKind::kWyHash);
  for (std::uint32_t k = 1; k <= 300; ++k) {
    std::uint32_t v = 0;
    ASSERT_TRUE(loaded->Find(k, &v)) << k;
    EXPECT_EQ(v, k ^ 0xABCD);
  }
  // Inserts into the loaded table keep working (mirror was rebuilt, hash
  // family restored).
  ASSERT_TRUE(loaded->Insert(100001, 5));
  std::uint32_t v = 0;
  ASSERT_TRUE(loaded->Find(100001, &v));
  EXPECT_EQ(v, 5u);
}

TEST(TableIo, SwissRejectsWrongWidthsAndCorruption) {
  SwissTable32 original(16);
  ASSERT_TRUE(original.Insert(7, 9));
  std::stringstream stream;
  ASSERT_TRUE(SaveSwissTable(original, stream));
  const std::string bytes = stream.str();

  // Wrong K/V widths.
  {
    std::stringstream in(bytes);
    EXPECT_FALSE(
        (LoadSwissTable<std::uint64_t, std::uint64_t>(in)).has_value());
  }
  // Cuckoo loader must reject a Swiss snapshot (different magic).
  {
    std::stringstream in(bytes);
    EXPECT_FALSE(
        (LoadTable<std::uint32_t, std::uint32_t>(in)).has_value());
  }
  // Swiss loader must reject a cuckoo snapshot.
  {
    CuckooTable32 cuckoo(2, 4, 64, BucketLayout::kInterleaved);
    std::stringstream cs;
    ASSERT_TRUE(SaveTable(cuckoo, cs));
    std::stringstream in(cs.str());
    EXPECT_FALSE(
        (LoadSwissTable<std::uint32_t, std::uint32_t>(in)).has_value());
  }
  // Corrupt hash kind.
  {
    std::string corrupt = bytes;
    corrupt[16] = 0x7F;  // hash_kind field (after magic + key/val bits)
    std::stringstream in(corrupt);
    EXPECT_FALSE(
        (LoadSwissTable<std::uint32_t, std::uint32_t>(in)).has_value());
  }
  // Truncation inside the control lane.
  {
    std::stringstream in(bytes.substr(0, bytes.size() - 8));
    EXPECT_FALSE(
        (LoadSwissTable<std::uint32_t, std::uint32_t>(in)).has_value());
  }

  // Lane corruptions. The arena and the control lane end the snapshot; the
  // header's size field follows the magic and four u32 fields.
  const std::size_t lane_at = bytes.size() - original.capacity();
  const std::size_t arena_at = lane_at - original.table_bytes();
  constexpr std::size_t kSizeAt = 24;
  std::uint64_t slot = 0;
  while (original.CtrlAt(slot) >= kCtrlEmpty) ++slot;
  const std::uint64_t group = slot / kSwissGroupSlots;
  const auto in_group = static_cast<unsigned>(slot % kSwissGroupSlots);
  const TableView view = original.view();
  auto key_at = [&](std::uint64_t g, unsigned s) {
    return arena_at + static_cast<std::size_t>(view.key_ptr(g, s) - view.data);
  };
  auto val_at = [&](std::uint64_t g, unsigned s) {
    return arena_at + static_cast<std::size_t>(view.val_ptr(g, s) - view.data);
  };
  auto rejected = [](const std::string& corrupt) {
    std::stringstream in(corrupt);
    return !LoadSwissTable<std::uint32_t, std::uint32_t>(in).has_value();
  };
  ASSERT_FALSE(rejected(bytes));
  // A byte that is neither FULL, EMPTY nor TOMBSTONE: the writer's sign-bit
  // free mask would read 0x90 as a free slot and overwrite it.
  {
    std::string corrupt = bytes;
    corrupt[lane_at + (slot + 1) % original.capacity()] = '\x90';
    EXPECT_TRUE(rejected(corrupt)) << "control byte 0x90";
  }
  // header.size differs from the number of FULL bytes.
  {
    std::string corrupt = bytes;
    corrupt[kSizeAt] = 2;
    EXPECT_TRUE(rejected(corrupt)) << "size 2 with one FULL byte";
  }
  // A FULL slot holding key 0.
  {
    std::string corrupt = bytes;
    std::memset(&corrupt[key_at(group, in_group)], 0, sizeof(std::uint32_t));
    EXPECT_TRUE(rejected(corrupt)) << "FULL slot with key 0";
  }
  // A FULL byte that is not the key's H2.
  {
    std::string corrupt = bytes;
    corrupt[lane_at + slot] = static_cast<char>(original.CtrlAt(slot) ^ 1);
    EXPECT_TRUE(rejected(corrupt)) << "control byte is not the key's H2";
  }
  // The key moved one group past its home, which holds EMPTY bytes: the
  // probe invariant is broken and lookups would miss the key.
  {
    std::string corrupt = bytes;
    const std::uint64_t next = (group + 1) % original.num_buckets();
    corrupt[lane_at + next * kSwissGroupSlots] = corrupt[lane_at + slot];
    corrupt[lane_at + slot] = static_cast<char>(kCtrlEmpty);
    std::memcpy(&corrupt[key_at(next, 0)], &bytes[key_at(group, in_group)],
                sizeof(std::uint32_t));
    std::memcpy(&corrupt[val_at(next, 0)], &bytes[val_at(group, in_group)],
                sizeof(std::uint32_t));
    std::memset(&corrupt[key_at(group, in_group)], 0, sizeof(std::uint32_t));
    EXPECT_TRUE(rejected(corrupt)) << "EMPTY between home and resting group";
  }
}

// A full table with one tombstone short of the purge minimum: the loader
// recounts the tombstones, so the next erase purges the loaded table just
// as it purges the original.
TEST(TableIo, SwissLoadedTombstonesPurgeWhenChurned) {
  SwissTable32 original(16, /*seed=*/3);  // 256 slots
  const std::uint64_t cap = original.capacity();
  for (std::uint32_t key = 1; original.size() < cap; ++key) {
    ASSERT_TRUE(original.Insert(key, key));
  }
  // No EMPTY byte is left, so every erase writes a TOMBSTONE.
  const std::uint64_t min_tombstones =
      std::max<std::uint64_t>(kSwissGroupSlots,
                              cap / kSwissPurgeTombstoneDivisor);
  std::uint32_t key = 1;
  while (original.tombstones() + 1 < min_tombstones) {
    ASSERT_TRUE(original.Erase(key++));
  }
  ASSERT_EQ(original.insert_stats().purges, 0u);

  std::stringstream stream;
  ASSERT_TRUE(SaveSwissTable(original, stream));
  auto loaded = LoadSwissTable<std::uint32_t, std::uint32_t>(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->tombstones(), original.tombstones());
  ASSERT_TRUE(original.Erase(key));
  ASSERT_TRUE(loaded->Erase(key));
  EXPECT_EQ(original.insert_stats().purges, 1u);
  EXPECT_EQ(loaded->insert_stats().purges, 1u);
  EXPECT_EQ(loaded->tombstones(), 0u);
  EXPECT_EQ(std::memcmp(original.raw_data(), loaded->raw_data(),
                        original.table_bytes()),
            0);
  EXPECT_EQ(std::memcmp(original.store().meta_data(),
                        loaded->store().meta_data(), cap),
            0);
}

TEST(TableIo, SwissFileRoundTrip) {
  SwissTable16x32 table(8);
  ASSERT_TRUE(table.Insert(42, 4242));
  const std::string path = "/tmp/simdht_test_swiss_snapshot.bin";
  ASSERT_TRUE(SaveSwissTableToFile(table, path));
  auto loaded = LoadSwissTableFromFile<std::uint16_t, std::uint32_t>(path);
  ASSERT_TRUE(loaded.has_value());
  std::uint32_t val = 0;
  ASSERT_TRUE(loaded->Find(42, &val));
  EXPECT_EQ(val, 4242u);
  std::remove(path.c_str());
  EXPECT_FALSE(
      (LoadSwissTableFromFile<std::uint16_t, std::uint32_t>("/no/such/file"))
          .has_value());
}

// --- sharded snapshots ---
// Container layout under test: ShardedHeader{magic[8], u32 shard_count,
// u32 reserved} then per shard ShardRecord{u32 shard_index, u32 reserved,
// u64 seed} + an embedded per-shard snapshot.
constexpr std::size_t kShardCountOffset = 8;
constexpr std::size_t kFirstRecordOffset = 16;
constexpr std::size_t kFirstSeedOffset = kFirstRecordOffset + 8;

ShardedTable32 BuildShardedFixture(unsigned shards, std::uint64_t seed) {
  ShardedTable32 table(shards, 2, 4, 2048, BucketLayout::kInterleaved, seed);
  const auto build = FillToLoadFactor(&table, 0.6, seed + 1);
  EXPECT_FALSE(build.inserted_keys.empty());
  return table;
}

std::string SaveToBytes(const ShardedTable32& table) {
  std::stringstream stream;
  EXPECT_TRUE(SaveShardedTable(table, stream));
  return stream.str();
}

std::optional<ShardedTable32> LoadFromBytes(std::string bytes) {
  std::stringstream stream(std::move(bytes));
  return LoadShardedTable<std::uint32_t, std::uint32_t>(stream);
}

TEST(TableIo, ShardedRoundTripPreservesEverything) {
  ShardedTable32 original = BuildShardedFixture(4, 55);
  auto loaded = LoadFromBytes(SaveToBytes(original));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_shards(), 4u);
  EXPECT_EQ(loaded->size(), original.size());
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(loaded->shard_seed(s), original.shard_seed(s)) << s;
    const ConcurrentCuckooTable32& a = original.shard(s);
    const ConcurrentCuckooTable32& b = loaded->shard(s);
    ASSERT_EQ(a.table_bytes(), b.table_bytes()) << s;
    EXPECT_EQ(std::memcmp(a.raw_data(), b.raw_data(), a.table_bytes()), 0)
        << s;
  }
  // Routed lookups resolve identically (router seeds + hash families and
  // bucket bytes all survived).
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(loaded->shard(s).size(), original.shard(s).size()) << s;
  }
}

TEST(TableIo, ShardedSingleShardRoundTrip) {
  ShardedTable32 original = BuildShardedFixture(1, 77);
  auto loaded = LoadFromBytes(SaveToBytes(original));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_shards(), 1u);
  EXPECT_EQ(loaded->shard_seed(0), 77u);
  EXPECT_EQ(loaded->size(), original.size());
}

TEST(TableIo, ShardedRejectsBadMagic) {
  std::string bytes = SaveToBytes(BuildShardedFixture(2, 5));
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(LoadFromBytes(std::move(bytes)).has_value());
  // An *unsharded* snapshot is not a sharded one either.
  CuckooTable32 plain(2, 4, 64, BucketLayout::kInterleaved);
  std::stringstream plain_stream;
  ASSERT_TRUE(SaveTable(plain, plain_stream));
  EXPECT_FALSE((LoadShardedTable<std::uint32_t, std::uint32_t>(plain_stream))
                   .has_value());
}

TEST(TableIo, ShardedRejectsCorruptShardCount) {
  const std::string good = SaveToBytes(BuildShardedFixture(2, 5));

  std::string zero = good;
  const std::uint32_t zero_count = 0;
  std::memcpy(&zero[kShardCountOffset], &zero_count, sizeof(zero_count));
  EXPECT_FALSE(LoadFromBytes(std::move(zero)).has_value());

  std::string absurd = good;
  const std::uint32_t absurd_count = 0xFFFFFFFFu;
  std::memcpy(&absurd[kShardCountOffset], &absurd_count,
              sizeof(absurd_count));
  EXPECT_FALSE(LoadFromBytes(std::move(absurd)).has_value());

  // Claiming more shards than the stream holds trips the embedded-snapshot
  // reads, not an allocation.
  std::string extra = good;
  const std::uint32_t extra_count = 3;
  std::memcpy(&extra[kShardCountOffset], &extra_count, sizeof(extra_count));
  EXPECT_FALSE(LoadFromBytes(std::move(extra)).has_value());
}

TEST(TableIo, ShardedRejectsOutOfSequenceRecords) {
  std::string bytes = SaveToBytes(BuildShardedFixture(2, 5));
  const std::uint32_t wrong_index = 1;  // record 0 must carry index 0
  std::memcpy(&bytes[kFirstRecordOffset], &wrong_index, sizeof(wrong_index));
  EXPECT_FALSE(LoadFromBytes(std::move(bytes)).has_value());
}

TEST(TableIo, ShardedRejectsSeedMismatch) {
  // A tampered seed no longer matches the stored hash multipliers; loading
  // such a snapshot would silently misroute keys, so it must be refused.
  std::string bytes = SaveToBytes(BuildShardedFixture(2, 5));
  bytes[kFirstSeedOffset] ^= 0xFF;
  EXPECT_FALSE(LoadFromBytes(std::move(bytes)).has_value());
}

TEST(TableIo, ShardedRejectsTruncation) {
  const std::string bytes = SaveToBytes(BuildShardedFixture(4, 5));
  EXPECT_FALSE(
      LoadFromBytes(bytes.substr(0, bytes.size() / 2)).has_value());
  EXPECT_FALSE(LoadFromBytes(bytes.substr(0, 10)).has_value());
}

TEST(TableIo, ShardedFileRoundTrip) {
  ShardedTable32 original = BuildShardedFixture(3, 91);
  const std::string path = "/tmp/simdht_test_sharded_snapshot.bin";
  ASSERT_TRUE(SaveShardedTableToFile(original, path));
  auto loaded = LoadShardedTableFromFile<std::uint32_t, std::uint32_t>(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_shards(), 3u);
  EXPECT_EQ(loaded->size(), original.size());
  std::remove(path.c_str());
  EXPECT_FALSE((LoadShardedTableFromFile<std::uint32_t, std::uint32_t>(
                    "/no/such/file"))
                   .has_value());
}

}  // namespace
}  // namespace simdht
