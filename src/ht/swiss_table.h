// Swiss-table (open addressing + control-byte metadata lane) hash table.
//
// The second table *family* in the benchmark, next to the (N, m) cuckoo
// tables: instead of N candidate buckets resolved by displacement, a Swiss
// table stores one 7-bit H2 fingerprint per slot in a contiguous control
// lane (ht/layout.h: FULL 0x00..0x7F | EMPTY 0x80 | TOMBSTONE 0xFE) and
// probes 16-slot groups linearly from the key's home group. SIMD lookups
// scan the control lane 16/32/64 bytes at a time (src/simd/swiss_*.cc) and
// only touch the key arena to verify fingerprint matches — the abseil
// flat_hash_map / F14 probing discipline, specialized to this benchmark's
// fixed-width pre-hashed keys.
//
// Like CuckooTable this is a *policy* class over the shared TableStore: the
// store owns the key/value arena, the control lane (+ its cyclic vector-load
// mirror), the seqlock stripes and the TableView; SwissTable only decides
// what to write.
//
// Probe invariant the kernels rely on (see docs/swiss_table.md): for every
// stored key k placed in group G_k, no group in [home(k), G_k) — probe
// order, wrapping — contains an EMPTY byte. Insert maintains it by placing
// at the first EMPTY/TOMBSTONE slot of the probe sequence; Erase maintains
// it by only writing EMPTY into a group that already contains EMPTY
// (otherwise TOMBSTONE), and its tombstone purge by re-placing every key at
// the first free slot of its probe sequence. A lookup may therefore scan
// any whole-group window width and stop after the first window containing
// an EMPTY byte.
#ifndef SIMDHT_HT_SWISS_TABLE_H_
#define SIMDHT_HT_SWISS_TABLE_H_

#include <cstdint>
#include <cstring>

#include "ht/mutation.h"
#include "ht/table_store.h"

namespace simdht {

// Writer-side counters (racy reads are fine for reporting). `inserts`
// counts every new key, `tombstone_reuses` the subset placed over a
// TOMBSTONE; `purges` counts Erase's in-place tombstone purges.
struct SwissInsertStats {
  std::uint64_t inserts = 0;           // new key placed
  std::uint64_t updates = 0;           // existing key's value overwritten
  std::uint64_t tombstone_reuses = 0;  // new key placed over a TOMBSTONE
  std::uint64_t failed_inserts = 0;    // Insert() returned false
  std::uint64_t purges = 0;            // tombstone purges run by Erase
};

// Tombstone purge trigger. Right after Erase writes a TOMBSTONE it purges
// in place when both hold:
//   capacity - size - tombstones < capacity / kSwissEmptyFloorDivisor
//     (the EMPTY slots have fallen below the floor), and
//   tombstones >= max(kSwissGroupSlots,
//                     capacity / kSwissPurgeTombstoneDivisor).
// The floor keeps missing-key probes short under sustained churn. The
// tombstone minimum makes every purge reclaim at least one group and
// capacity / 64 slots, so there is at most one purge per capacity / 64
// tombstone-writing erases, even at very high load.
inline constexpr std::uint64_t kSwissEmptyFloorDivisor = 32;
inline constexpr std::uint64_t kSwissPurgeTombstoneDivisor = 64;

// K in {uint16_t, uint32_t, uint64_t}; V in {uint32_t, uint64_t}.
template <typename K, typename V>
class SwissTable {
 public:
  // `min_groups` 16-slot groups, rounded up to a power of two (>= 2).
  // `seed` randomizes the hash family (0 = deterministic defaults);
  // `hash_kind` selects multiply-shift or wyhash for group selection + H2.
  explicit SwissTable(std::uint64_t min_groups, std::uint64_t seed = 0,
                      HashKind hash_kind = HashKind::kMultiplyShift);

  SwissTable(SwissTable&&) noexcept = default;
  SwissTable& operator=(SwissTable&&) noexcept = default;

  // Inserts or overwrites. Key 0 is rejected (returns false) like every
  // table in the repo — workload generators never emit it. Returns false
  // only when no EMPTY or TOMBSTONE slot remains anywhere (the table is
  // truly full); there is no displacement, stash or rebuild machinery.
  bool Insert(K key, V val);

  // Batched mutation surface (ht/mutation.h). Bit-identical to the scalar
  // Insert loop, counters included: home groups and H2 fingerprints are
  // block-hashed for the chunk, control lanes write-prefetched, and each
  // probe group resolved with one inlined SSE2 control scan
  // (ht/swiss_scan.h: match/EMPTY/free masks) instead of a 16-slot byte
  // walk — find-or-insert picks exactly the slot the scalar walk picks
  // (first free slot of the probe sequence). Never purges.
  void BatchInsert(const MutationBatch<K, V>& batch);

  // Batched UpdateValue: ok[i] = key present (value overwritten in place).
  void BatchUpdate(const MutationBatch<K, V>& batch);

  // Single-key reference lookup: groupwise probe of the control lane, key
  // verify on fingerprint match, stop at the first group holding an EMPTY.
  // This is the semantics every Swiss lookup kernel must reproduce.
  bool Find(K key, V* val) const;

  // Overwrites the value of an existing key in place (single aligned word
  // store — safe against concurrent readers, same contract as
  // CuckooTable::UpdateValue). Returns false if the key is absent.
  bool UpdateValue(K key, V val);

  // Removes the key if present. Writes EMPTY when the slot's group already
  // holds an EMPTY byte (no probe sequence can pass fully through such a
  // group), TOMBSTONE otherwise — the abseil deletion rule that preserves
  // the probe invariant above. After writing a TOMBSTONE it may purge (see
  // kSwissEmptyFloorDivisor): every tombstone turns back into EMPTY and
  // live keys MOVE to the first free slot of their probe sequences, so no
  // slot position read before an Erase survives it. Insert, BatchInsert and
  // Erase are structural writes and exclude concurrent readers; only
  // UpdateValue is reader-safe.
  bool Erase(K key);

  std::uint64_t size() const { return store_.size(); }
  std::uint64_t capacity() const { return store_.num_slots(); }
  // TOMBSTONE bytes in the control lane.
  std::uint64_t tombstones() const { return tombstones_; }
  double load_factor() const {
    return static_cast<double>(size()) / static_cast<double>(capacity());
  }

  std::uint64_t num_buckets() const { return store_.num_buckets(); }
  const LayoutSpec& spec() const { return store_.spec(); }
  std::uint64_t table_bytes() const { return store_.table_bytes(); }
  const SwissInsertStats& insert_stats() const { return stats_; }

  // Read-only view for lookup kernels (view().meta is the control lane).
  TableView view() const { return store_.view(); }

  TableStore& store() { return store_; }
  const TableStore& store() const { return store_; }

  // Snapshot support (ht/table_io.h): raw slot arena, control lane and hash
  // family. The control lane is reached through store(). RestoreState
  // recounts the tombstones of the adopted lane.
  const std::uint8_t* raw_data() const { return store_.data(); }
  std::uint8_t* raw_data_mutable() { return store_.data(); }
  const HashFamily& hash_family() const { return store_.hash(); }
  void RestoreState(const HashFamily& hash, std::uint64_t size,
                    std::uint64_t seed);

  // Raw slot access for tests. `bucket` is the group index.
  K KeyAt(std::uint64_t bucket, unsigned slot) const {
    return store_.KeyAt<K>(bucket, slot);
  }
  V ValAt(std::uint64_t bucket, unsigned slot) const {
    return store_.ValAt<V>(bucket, slot);
  }
  std::uint8_t CtrlAt(std::uint64_t flat_slot) const {
    return store_.CtrlAt(flat_slot);
  }

 private:
  std::uint64_t HomeGroup(K key) const {
    return store_.Bucket<K>(0, key);
  }

  // Locates `key` with one control-group scan per probed group; returns
  // true and fills (group, slot) when present, plus that group's EMPTY
  // mask when `empty_mask` is non-null.
  bool Locate(K key, std::uint64_t* group, unsigned* slot,
              std::uint32_t* empty_mask = nullptr) const;

  // Erase's in-place tombstone purge (abseil's DropDeletesWithoutResize
  // for aligned linear group probing; docs/swiss_table.md).
  void PurgeTombstones();

  TableStore store_;
  std::uint64_t tombstones_ = 0;
  SwissInsertStats stats_;
};

using SwissTable16x32 = SwissTable<std::uint16_t, std::uint32_t>;
using SwissTable32 = SwissTable<std::uint32_t, std::uint32_t>;
using SwissTable64 = SwissTable<std::uint64_t, std::uint64_t>;

extern template class SwissTable<std::uint16_t, std::uint32_t>;
extern template class SwissTable<std::uint32_t, std::uint32_t>;
extern template class SwissTable<std::uint64_t, std::uint64_t>;

}  // namespace simdht

#endif  // SIMDHT_HT_SWISS_TABLE_H_
