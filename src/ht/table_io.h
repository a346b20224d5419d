// Table serialization: snapshot a built table to a stream/file and load it
// back byte-identically (same layout, hash multipliers and bucket data).
//
// Building large tables to a high load factor is the slow part of any
// experiment; snapshots let a sweep reuse one build across processes and
// make results byte-reproducible.
#ifndef SIMDHT_HT_TABLE_IO_H_
#define SIMDHT_HT_TABLE_IO_H_

#include <iosfwd>
#include <optional>
#include <string>

#include "ht/cuckoo_table.h"
#include "ht/sharded_table.h"
#include "ht/swiss_table.h"

namespace simdht {

// Writes a snapshot; returns false on I/O error.
template <typename K, typename V>
bool SaveTable(const CuckooTable<K, V>& table, std::ostream& out);
template <typename K, typename V>
bool SaveTableToFile(const CuckooTable<K, V>& table,
                     const std::string& path);

// Reads a snapshot; empty optional on malformed input, wrong key/value
// widths, or I/O error.
template <typename K, typename V>
std::optional<CuckooTable<K, V>> LoadTable(std::istream& in);
template <typename K, typename V>
std::optional<CuckooTable<K, V>> LoadTableFromFile(const std::string& path);

// --- Swiss snapshots ---
// Format: magic "SHTW1", then a header carrying the hash kind (multiply-shift
// or wyhash), multipliers, seed and sizes, the raw slot arena, and finally
// the control-byte lane (num_slots bytes — the cyclic vector-load mirror is
// not persisted; AdoptMeta rebuilds it on load). Rejected with an empty
// optional: bad magic, wrong key/value widths, an unknown hash kind, or a
// size/byte-count mismatch against the reconstructed shape.
template <typename K, typename V>
bool SaveSwissTable(const SwissTable<K, V>& table, std::ostream& out);
template <typename K, typename V>
bool SaveSwissTableToFile(const SwissTable<K, V>& table,
                          const std::string& path);
template <typename K, typename V>
std::optional<SwissTable<K, V>> LoadSwissTable(std::istream& in);
template <typename K, typename V>
std::optional<SwissTable<K, V>> LoadSwissTableFromFile(
    const std::string& path);

// --- sharded snapshots ---
// Container format: a sharded header (magic "SHTS2" + shard count), then
// per shard a record {shard_index, seed} followed by an ordinary per-shard
// table snapshot. Loading reads each shard single-threaded, then moves it
// into a seqlocked ShardedTable shard with its hash family and router
// position intact.
//
// Rejected with an empty optional: bad magic, a zero or absurd shard count,
// shard records out of sequence, a corrupt embedded snapshot, or a shard
// whose stored hash multipliers or seed do not match its recorded seed (the
// router would silently misroute keys if such a snapshot were accepted).
template <typename K, typename V>
bool SaveShardedTable(const ShardedTable<K, V>& table, std::ostream& out);
template <typename K, typename V>
bool SaveShardedTableToFile(const ShardedTable<K, V>& table,
                            const std::string& path);
template <typename K, typename V>
std::optional<ShardedTable<K, V>> LoadShardedTable(std::istream& in);
template <typename K, typename V>
std::optional<ShardedTable<K, V>> LoadShardedTableFromFile(
    const std::string& path);

extern template bool SaveTable(
    const CuckooTable<std::uint32_t, std::uint32_t>&, std::ostream&);
extern template bool SaveTable(
    const CuckooTable<std::uint64_t, std::uint64_t>&, std::ostream&);
extern template bool SaveTable(
    const CuckooTable<std::uint16_t, std::uint32_t>&, std::ostream&);
extern template std::optional<CuckooTable<std::uint32_t, std::uint32_t>>
LoadTable(std::istream&);
extern template std::optional<CuckooTable<std::uint64_t, std::uint64_t>>
LoadTable(std::istream&);
extern template std::optional<CuckooTable<std::uint16_t, std::uint32_t>>
LoadTable(std::istream&);

extern template bool SaveSwissTable(
    const SwissTable<std::uint32_t, std::uint32_t>&, std::ostream&);
extern template bool SaveSwissTable(
    const SwissTable<std::uint64_t, std::uint64_t>&, std::ostream&);
extern template bool SaveSwissTable(
    const SwissTable<std::uint16_t, std::uint32_t>&, std::ostream&);
extern template std::optional<SwissTable<std::uint32_t, std::uint32_t>>
LoadSwissTable(std::istream&);
extern template std::optional<SwissTable<std::uint64_t, std::uint64_t>>
LoadSwissTable(std::istream&);
extern template std::optional<SwissTable<std::uint16_t, std::uint32_t>>
LoadSwissTable(std::istream&);

extern template bool SaveShardedTable(
    const ShardedTable<std::uint32_t, std::uint32_t>&, std::ostream&);
extern template bool SaveShardedTable(
    const ShardedTable<std::uint64_t, std::uint64_t>&, std::ostream&);
extern template bool SaveShardedTable(
    const ShardedTable<std::uint16_t, std::uint32_t>&, std::ostream&);
extern template std::optional<ShardedTable<std::uint32_t, std::uint32_t>>
LoadShardedTable(std::istream&);
extern template std::optional<ShardedTable<std::uint64_t, std::uint64_t>>
LoadShardedTable(std::istream&);
extern template std::optional<ShardedTable<std::uint16_t, std::uint32_t>>
LoadShardedTable(std::istream&);

}  // namespace simdht

#endif  // SIMDHT_HT_TABLE_IO_H_
