#include "ht/table_io.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

namespace simdht {

namespace {

// Format 2: header gains the effective hash seed plus stash metadata, and
// stash entries follow the arena bytes. Version-1 snapshots predate the
// insertion engine and are not read back (nothing persists them anymore).
constexpr char kMagic[8] = {'S', 'H', 'T', 'B', '2', 0, 0, 0};
constexpr char kShardedMagic[8] = {'S', 'H', 'T', 'S', '2', 0, 0, 0};
constexpr char kSwissMagic[8] = {'S', 'H', 'T', 'W', '1', 0, 0, 0};

// Anything above this is a corrupt count, not a configuration: the router
// folds shard indices out of 32 avalanche bits, and no machine this suite
// targets runs more in one process.
constexpr std::uint32_t kMaxSnapshotShards = 1u << 12;

struct ShardedHeader {
  char magic[8];
  std::uint32_t shard_count;
  std::uint32_t reserved;
};

struct ShardRecord {
  std::uint32_t shard_index;
  std::uint32_t reserved;
  std::uint64_t seed;
};

struct SnapshotHeader {
  char magic[8];
  std::uint32_t key_bits;
  std::uint32_t val_bits;
  std::uint32_t ways;
  std::uint32_t slots;
  std::uint32_t bucket_layout;
  std::uint32_t log2_buckets;
  std::uint64_t size;
  std::uint64_t mult[kMaxWays];
  std::uint64_t data_bytes;
  std::uint64_t seed;            // effective hash seed (moves on rebuild)
  std::uint32_t stash_capacity;
  std::uint32_t stash_count;     // StashEntry records after the arena bytes
};

// Swiss snapshots carry the hash kind (wyhash is a legal family choice
// here, unlike cuckoo snapshots) and the control lane instead of a stash.
struct SwissSnapshotHeader {
  char magic[8];
  std::uint32_t key_bits;
  std::uint32_t val_bits;
  std::uint32_t hash_kind;       // HashKind: 0 multiply-shift, 1 wyhash
  std::uint32_t log2_groups;
  std::uint64_t size;
  std::uint64_t mult[kMaxWays];
  std::uint64_t data_bytes;      // slot arena
  std::uint64_t meta_bytes;      // control lane (mirror excluded)
  std::uint64_t seed;
};

// Whether a restored Swiss table's control lane is one every SwissTable
// operation can trust:
//   * every byte is FULL (0x00..0x7F), EMPTY or TOMBSTONE -- the writer's
//     scan reads any other byte with its sign bit set as a free slot;
//   * `size` slots are FULL, each holding a nonzero key whose H2 is its
//     control byte;
//   * the probe invariant: no group from a key's home group up to (not
//     including) its own holds an EMPTY byte, or lookups would miss it.
// Linear in the slot count: clear[g] is the number of consecutive groups
// ending at g, walking backwards and wrapping, that hold no EMPTY byte.
template <typename K, typename V>
bool SwissLaneValid(const SwissTable<K, V>& table, std::uint64_t size) {
  const std::uint64_t groups = table.num_buckets();
  const std::uint64_t mask = groups - 1;
  std::vector<bool> has_empty(groups, false);
  std::uint64_t an_empty_group = groups;
  for (std::uint64_t g = 0; g < groups; ++g) {
    for (unsigned s = 0; s < kSwissGroupSlots; ++s) {
      const std::uint8_t c = table.CtrlAt(g * kSwissGroupSlots + s);
      if (c == kCtrlEmpty) {
        has_empty[g] = true;
        an_empty_group = g;
      } else if (c > kCtrlEmpty && c != kCtrlTombstone) {
        return false;
      }
    }
  }
  std::vector<std::uint64_t> clear(groups, groups);
  if (an_empty_group != groups) {
    for (std::uint64_t i = 0; i < groups; ++i) {
      const std::uint64_t g = (an_empty_group + i) & mask;
      clear[g] = has_empty[g] ? 0 : clear[(g - 1) & mask] + 1;
    }
  }
  const HashFamily& hash = table.hash_family();
  std::uint64_t full = 0;
  for (std::uint64_t g = 0; g < groups; ++g) {
    for (unsigned s = 0; s < kSwissGroupSlots; ++s) {
      const std::uint8_t c = table.CtrlAt(g * kSwissGroupSlots + s);
      if (c >= kCtrlEmpty) continue;
      ++full;
      const K key = table.KeyAt(g, s);
      if (key == static_cast<K>(kEmptyKey) || hash.H2<K>(key) != c) {
        return false;
      }
      const std::uint64_t behind = (g - hash.Bucket<K>(0, key)) & mask;
      if (behind != 0 && clear[(g - 1) & mask] < behind) return false;
    }
  }
  return full == size;
}

// One cuckoo snapshot (SHTB2) from the storage layer, so tables under
// either writer policy serialize through the same bytes.
bool SaveCuckooStore(const TableStore& store, std::ostream& out) {
  SnapshotHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  const LayoutSpec& spec = store.spec();
  header.key_bits = spec.key_bits;
  header.val_bits = spec.val_bits;
  header.ways = spec.ways;
  header.slots = spec.slots;
  header.bucket_layout = static_cast<std::uint32_t>(spec.bucket_layout);
  header.log2_buckets = store.log2_buckets();
  header.size = store.size();
  for (unsigned i = 0; i < kMaxWays; ++i) {
    header.mult[i] = store.hash().mult[i];
  }
  header.data_bytes = store.table_bytes();
  header.seed = store.seed();
  header.stash_capacity = store.stash_capacity();
  header.stash_count = store.stash_count();

  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(store.data()),
            static_cast<std::streamsize>(header.data_bytes));
  for (std::uint32_t i = 0; i < header.stash_count; ++i) {
    const StashEntry e = store.stash_at(i);
    out.write(reinterpret_cast<const char*>(&e), sizeof(e));
  }
  return static_cast<bool>(out);
}

}  // namespace

template <typename K, typename V>
bool SaveTable(const CuckooTable<K, V>& table, std::ostream& out) {
  return SaveCuckooStore(table.store(), out);
}

template <typename K, typename V>
std::optional<CuckooTable<K, V>> LoadTable(std::istream& in) {
  SnapshotHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  if (header.key_bits != sizeof(K) * 8 || header.val_bits != sizeof(V) * 8) {
    return std::nullopt;  // snapshot was taken with different widths
  }
  if (header.log2_buckets >= 63 || header.bucket_layout > 1) {
    return std::nullopt;
  }
  if (header.stash_capacity > kMaxStashEntries ||
      header.stash_count > header.stash_capacity) {
    return std::nullopt;  // corrupt stash metadata
  }

  std::optional<CuckooTable<K, V>> maybe_table;
  try {
    maybe_table.emplace(header.ways, header.slots,
                        std::uint64_t{1} << header.log2_buckets,
                        static_cast<BucketLayout>(header.bucket_layout));
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // corrupt header: impossible layout
  }
  CuckooTable<K, V>& table = *maybe_table;
  if (table.table_bytes() != header.data_bytes) return std::nullopt;

  in.read(reinterpret_cast<char*>(table.raw_data_mutable()),
          static_cast<std::streamsize>(header.data_bytes));
  if (!in) return std::nullopt;

  TableStore& store = table.store();
  store.set_stash_capacity(header.stash_capacity);
  store.StashClear();
  for (std::uint32_t i = 0; i < header.stash_count; ++i) {
    StashEntry e;
    in.read(reinterpret_cast<char*>(&e), sizeof(e));
    if (!in) return std::nullopt;
    store.StashAppend(e.key, e.val);
  }

  HashFamily hash;
  hash.log2_buckets = header.log2_buckets;
  for (unsigned i = 0; i < kMaxWays; ++i) hash.mult[i] = header.mult[i];
  table.RestoreState(hash, header.size, header.seed);
  return maybe_table;
}

template <typename K, typename V>
bool SaveTableToFile(const CuckooTable<K, V>& table,
                     const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return out && SaveTable(table, out);
}

template <typename K, typename V>
std::optional<CuckooTable<K, V>> LoadTableFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return LoadTable<K, V>(in);
}

template <typename K, typename V>
bool SaveSwissTable(const SwissTable<K, V>& table, std::ostream& out) {
  SwissSnapshotHeader header{};
  std::memcpy(header.magic, kSwissMagic, sizeof(kSwissMagic));
  const LayoutSpec& spec = table.spec();
  const TableStore& store = table.store();
  header.key_bits = spec.key_bits;
  header.val_bits = spec.val_bits;
  header.hash_kind = static_cast<std::uint32_t>(table.hash_family().kind);
  header.log2_groups = Log2Floor(table.num_buckets());
  header.size = table.size();
  for (unsigned i = 0; i < kMaxWays; ++i) {
    header.mult[i] = table.hash_family().mult[i];
  }
  header.data_bytes = table.table_bytes();
  header.meta_bytes = store.num_slots();
  header.seed = store.seed();

  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(table.raw_data()),
            static_cast<std::streamsize>(header.data_bytes));
  out.write(reinterpret_cast<const char*>(store.meta_data()),
            static_cast<std::streamsize>(header.meta_bytes));
  return static_cast<bool>(out);
}

template <typename K, typename V>
std::optional<SwissTable<K, V>> LoadSwissTable(std::istream& in) {
  SwissSnapshotHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || std::memcmp(header.magic, kSwissMagic, sizeof(kSwissMagic)) != 0) {
    return std::nullopt;
  }
  if (header.key_bits != sizeof(K) * 8 || header.val_bits != sizeof(V) * 8) {
    return std::nullopt;  // snapshot was taken with different widths
  }
  if (header.hash_kind > static_cast<std::uint32_t>(HashKind::kWyHash) ||
      header.log2_groups >= 48) {
    return std::nullopt;  // unknown hash family / corrupt group count
  }

  std::optional<SwissTable<K, V>> maybe_table;
  try {
    maybe_table.emplace(std::uint64_t{1} << header.log2_groups,
                        /*seed=*/0,
                        static_cast<HashKind>(header.hash_kind));
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  SwissTable<K, V>& table = *maybe_table;
  if (table.table_bytes() != header.data_bytes ||
      table.store().num_slots() != header.meta_bytes) {
    return std::nullopt;  // shape mismatch: corrupt header
  }

  in.read(reinterpret_cast<char*>(table.raw_data_mutable()),
          static_cast<std::streamsize>(header.data_bytes));
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> lane(header.meta_bytes);
  in.read(reinterpret_cast<char*>(lane.data()),
          static_cast<std::streamsize>(header.meta_bytes));
  if (!in) return std::nullopt;
  table.store().AdoptMeta(lane.data());

  HashFamily hash;
  hash.log2_buckets = header.log2_groups;
  hash.kind = static_cast<HashKind>(header.hash_kind);
  for (unsigned i = 0; i < kMaxWays; ++i) hash.mult[i] = header.mult[i];
  table.RestoreState(hash, header.size, header.seed);
  if (!SwissLaneValid(table, header.size)) return std::nullopt;
  return maybe_table;
}

template <typename K, typename V>
bool SaveSwissTableToFile(const SwissTable<K, V>& table,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return out && SaveSwissTable(table, out);
}

template <typename K, typename V>
std::optional<SwissTable<K, V>> LoadSwissTableFromFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return LoadSwissTable<K, V>(in);
}

template <typename K, typename V>
bool SaveShardedTable(const ShardedTable<K, V>& table, std::ostream& out) {
  ShardedHeader header{};
  std::memcpy(header.magic, kShardedMagic, sizeof(kShardedMagic));
  header.shard_count = table.num_shards();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (unsigned s = 0; s < table.num_shards(); ++s) {
    ShardRecord record{};
    record.shard_index = s;
    record.seed = table.shard_seed(s);
    out.write(reinterpret_cast<const char*>(&record), sizeof(record));
    if (!SaveCuckooStore(table.shard(s).store(), out)) return false;
  }
  return static_cast<bool>(out);
}

template <typename K, typename V>
std::optional<ShardedTable<K, V>> LoadShardedTable(std::istream& in) {
  ShardedHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in ||
      std::memcmp(header.magic, kShardedMagic, sizeof(kShardedMagic)) != 0) {
    return std::nullopt;
  }
  if (header.shard_count == 0 || header.shard_count > kMaxSnapshotShards) {
    return std::nullopt;  // corrupt shard count
  }

  std::vector<CuckooTable<K, V>> shard_tables;
  std::vector<std::uint64_t> shard_seeds;
  shard_tables.reserve(header.shard_count);
  shard_seeds.reserve(header.shard_count);
  for (std::uint32_t s = 0; s < header.shard_count; ++s) {
    ShardRecord record{};
    in.read(reinterpret_cast<char*>(&record), sizeof(record));
    if (!in || record.shard_index != s) {
      return std::nullopt;  // truncated or out-of-sequence shard record
    }
    std::optional<CuckooTable<K, V>> shard = LoadTable<K, V>(in);
    if (!shard) return std::nullopt;
    // A shard's stored multipliers and seed must be the ones its record
    // names: otherwise the router/seed metadata lies about the data and
    // every re-derived hash (rebuilds, resharding) would misplace keys.
    const HashFamily expected = HashFamily::Make(
        Log2Floor(shard->num_buckets()), record.seed);
    for (unsigned w = 0; w < kMaxWays; ++w) {
      if (shard->hash_family().mult[w] != expected.mult[w]) {
        return std::nullopt;  // seed mismatch
      }
    }
    if (shard->store().seed() != record.seed) return std::nullopt;
    shard_tables.push_back(std::move(*shard));
    shard_seeds.push_back(record.seed);
  }
  return ShardedTable<K, V>(std::move(shard_tables), std::move(shard_seeds));
}

template <typename K, typename V>
bool SaveShardedTableToFile(const ShardedTable<K, V>& table,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return out && SaveShardedTable(table, out);
}

template <typename K, typename V>
std::optional<ShardedTable<K, V>> LoadShardedTableFromFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return LoadShardedTable<K, V>(in);
}

template bool SaveTable(const CuckooTable<std::uint32_t, std::uint32_t>&,
                        std::ostream&);
template bool SaveTable(const CuckooTable<std::uint64_t, std::uint64_t>&,
                        std::ostream&);
template bool SaveTable(const CuckooTable<std::uint16_t, std::uint32_t>&,
                        std::ostream&);
template std::optional<CuckooTable<std::uint32_t, std::uint32_t>> LoadTable(
    std::istream&);
template std::optional<CuckooTable<std::uint64_t, std::uint64_t>> LoadTable(
    std::istream&);
template std::optional<CuckooTable<std::uint16_t, std::uint32_t>> LoadTable(
    std::istream&);
template bool SaveTableToFile(
    const CuckooTable<std::uint32_t, std::uint32_t>&, const std::string&);
template bool SaveTableToFile(
    const CuckooTable<std::uint64_t, std::uint64_t>&, const std::string&);
template bool SaveTableToFile(
    const CuckooTable<std::uint16_t, std::uint32_t>&, const std::string&);
template std::optional<CuckooTable<std::uint32_t, std::uint32_t>>
LoadTableFromFile(const std::string&);
template std::optional<CuckooTable<std::uint64_t, std::uint64_t>>
LoadTableFromFile(const std::string&);
template std::optional<CuckooTable<std::uint16_t, std::uint32_t>>
LoadTableFromFile(const std::string&);

template bool SaveSwissTable(const SwissTable<std::uint32_t, std::uint32_t>&,
                             std::ostream&);
template bool SaveSwissTable(const SwissTable<std::uint64_t, std::uint64_t>&,
                             std::ostream&);
template bool SaveSwissTable(const SwissTable<std::uint16_t, std::uint32_t>&,
                             std::ostream&);
template std::optional<SwissTable<std::uint32_t, std::uint32_t>>
LoadSwissTable(std::istream&);
template std::optional<SwissTable<std::uint64_t, std::uint64_t>>
LoadSwissTable(std::istream&);
template std::optional<SwissTable<std::uint16_t, std::uint32_t>>
LoadSwissTable(std::istream&);
template bool SaveSwissTableToFile(
    const SwissTable<std::uint32_t, std::uint32_t>&, const std::string&);
template bool SaveSwissTableToFile(
    const SwissTable<std::uint64_t, std::uint64_t>&, const std::string&);
template bool SaveSwissTableToFile(
    const SwissTable<std::uint16_t, std::uint32_t>&, const std::string&);
template std::optional<SwissTable<std::uint32_t, std::uint32_t>>
LoadSwissTableFromFile(const std::string&);
template std::optional<SwissTable<std::uint64_t, std::uint64_t>>
LoadSwissTableFromFile(const std::string&);
template std::optional<SwissTable<std::uint16_t, std::uint32_t>>
LoadSwissTableFromFile(const std::string&);

template bool SaveShardedTable(
    const ShardedTable<std::uint32_t, std::uint32_t>&, std::ostream&);
template bool SaveShardedTable(
    const ShardedTable<std::uint64_t, std::uint64_t>&, std::ostream&);
template bool SaveShardedTable(
    const ShardedTable<std::uint16_t, std::uint32_t>&, std::ostream&);
template std::optional<ShardedTable<std::uint32_t, std::uint32_t>>
LoadShardedTable(std::istream&);
template std::optional<ShardedTable<std::uint64_t, std::uint64_t>>
LoadShardedTable(std::istream&);
template std::optional<ShardedTable<std::uint16_t, std::uint32_t>>
LoadShardedTable(std::istream&);
template bool SaveShardedTableToFile(
    const ShardedTable<std::uint32_t, std::uint32_t>&, const std::string&);
template bool SaveShardedTableToFile(
    const ShardedTable<std::uint64_t, std::uint64_t>&, const std::string&);
template bool SaveShardedTableToFile(
    const ShardedTable<std::uint16_t, std::uint32_t>&, const std::string&);
template std::optional<ShardedTable<std::uint32_t, std::uint32_t>>
LoadShardedTableFromFile(const std::string&);
template std::optional<ShardedTable<std::uint64_t, std::uint64_t>>
LoadShardedTableFromFile(const std::string&);
template std::optional<ShardedTable<std::uint16_t, std::uint32_t>>
LoadShardedTableFromFile(const std::string&);

}  // namespace simdht
