// Runtime-configurable (N, m) cuckoo hash table.
//
// One class covers every variant the paper evaluates: non-bucketized N-way
// cuckoo tables (m = 1, Fig 1a) and bucketized cuckoo hash tables (m > 1,
// Fig 1b), in interleaved or split bucket layout, over 16/32/64-bit keys.
//
// This is a *policy* class: all storage concerns (bucket arena, shape
// resolution, seqlock stripes, TableView construction) live in the shared
// TableStore (ht/table_store.h); CuckooTable only decides what to write.
// Inserts run the shared BFS path-search engine (ht/path_search.h) by
// default — shortest eviction chain, read-only search, so a failed insert
// makes zero writes — with the legacy bounded random walk kept behind
// InsertPolicy for apples-to-apples comparison (bench/micro_insert_path).
// When no path exists the key spills to a small overflow stash, and when
// even the stash is full a reseed-and-rebuild recovery pass re-inserts the
// whole table under a fresh hash family before Insert reports failure.
// Lookups through the class are the scalar reference; SIMD batch lookups go
// through the kernel registry using view().
#ifndef SIMDHT_HT_CUCKOO_TABLE_H_
#define SIMDHT_HT_CUCKOO_TABLE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/compiler.h"
#include "common/random.h"
#include "ht/mutation.h"
#include "ht/path_search.h"
#include "ht/table_store.h"

namespace simdht {

// How Insert finds a slot when every candidate is occupied.
enum class InsertPolicy : std::uint8_t {
  kBfs = 0,         // shortest eviction chain (default)
  kRandomWalk = 1,  // bounded random walk (MemC3/CuckooSwitch heritage)
};

const char* InsertPolicyName(InsertPolicy policy);

// Writer-side insertion counters (racy reads are fine for reporting).
struct InsertStats {
  std::uint64_t direct_inserts = 0;  // empty candidate slot, no eviction
  std::uint64_t path_inserts = 0;    // placed via an eviction chain
  std::uint64_t path_moves = 0;      // total entries displaced by chains
  std::uint64_t walk_kicks = 0;      // random-walk displacements
  std::uint64_t stash_inserts = 0;   // spilled to the overflow stash
  std::uint64_t rebuilds = 0;        // successful reseed-and-rebuild passes
  std::uint64_t failed_inserts = 0;  // Insert() returned false
};

// K in {uint16_t, uint32_t, uint64_t}; V in {uint32_t, uint64_t}.
template <typename K, typename V>
class CuckooTable {
 public:
  // `num_buckets` is rounded up to a power of two (>= 2).
  // `seed` randomizes hash multipliers and the eviction walk; seed 0 gives
  // the deterministic default family.
  CuckooTable(unsigned ways, unsigned slots, std::uint64_t num_buckets,
              BucketLayout layout, std::uint64_t seed = 0);

  CuckooTable(CuckooTable&&) noexcept = default;
  CuckooTable& operator=(CuckooTable&&) noexcept = default;

  // Inserts or overwrites. Key 0 is the empty-slot sentinel and is rejected
  // (returns false) — in every build mode, not just under assert. Returns
  // false only when the table is genuinely full for this key set: no
  // eviction path within the BFS budget, stash full, and rebuild recovery
  // (if enabled) could not place everything under a fresh seed. A failed
  // Insert leaves the table contents bit-identical.
  bool Insert(K key, V val);

  // Batched mutation surface (ht/mutation.h). Bit-identical to calling
  // Insert(keys[i], vals[i]) in batch order — same table bytes, stash,
  // stats and ok results — but the chunk is block-hashed, its candidate
  // buckets write-prefetched, and each bucket SIMD-scanned once for both
  // the duplicate and the first empty slot. Only keys whose candidates are
  // all full (or that collide structurally) fall back to the scalar core.
  void BatchInsert(const MutationBatch<K, V>& batch);

  // Batched UpdateValue: ok[i] = key present (value overwritten in place).
  void BatchUpdate(const MutationBatch<K, V>& batch);

  // Scalar reference lookup (the paper's "Scalar" baseline inner step).
  // Probes the candidate buckets, then the overflow stash.
  bool Find(K key, V* val) const;

  // Overwrites the value of an existing key without any cuckoo relocation.
  // Returns false if the key is absent. Because the key never moves and the
  // value is a single aligned word, this is safe to run concurrently with
  // readers (they observe either the old or the new value) — the primitive
  // behind the mixed read/update workloads of Section VII's future work.
  bool UpdateValue(K key, V val);

  // Removes the key if present (buckets or stash).
  bool Erase(K key);

  // Entries currently stored / storable. Stash entries count toward size()
  // (they are stored and findable) but not capacity(), so a stashed table
  // reports the load factor it actually serves.
  std::uint64_t size() const { return store_.size(); }
  std::uint64_t capacity() const {
    return store_.num_buckets() * store_.spec().slots;
  }
  double load_factor() const {
    return static_cast<double>(size()) / static_cast<double>(capacity());
  }

  std::uint64_t num_buckets() const { return store_.num_buckets(); }
  const LayoutSpec& spec() const { return store_.spec(); }
  std::uint64_t table_bytes() const { return store_.table_bytes(); }

  // --- insertion-engine knobs ---
  InsertPolicy insert_policy() const { return insert_policy_; }
  void set_insert_policy(InsertPolicy policy) { insert_policy_ = policy; }
  void set_stash_capacity(unsigned cap) { store_.set_stash_capacity(cap); }
  unsigned stash_count() const { return store_.stash_count(); }
  bool rebuild_enabled() const { return rebuild_enabled_; }
  void set_rebuild_enabled(bool enabled) { rebuild_enabled_ = enabled; }
  const InsertStats& insert_stats() const { return stats_; }
  // Writer-side mutable access for wrappers that implement their own
  // insertion discipline (ConcurrentCuckooTable).
  InsertStats& mutable_insert_stats() { return stats_; }

  // Read-only view for lookup kernels.
  TableView view() const { return store_.view(); }

  // The bucket-scan kernel the batched mutation engine uses for this
  // table's layout, resolved once at construction (never null).
  const MutationKernel* mutation_kernel() const { return mutation_kernel_; }

  // The storage layer: wrappers that add their own concurrency discipline
  // (ConcurrentCuckooTable) reach the shared seqlock stripes and write
  // epoch through here instead of owning duplicates.
  TableStore& store() { return store_; }
  const TableStore& store() const { return store_; }

  // Snapshot support (ht/table_io.h): raw bucket storage and hash family.
  const std::uint8_t* raw_data() const { return store_.data(); }
  std::uint8_t* raw_data_mutable() { return store_.data(); }
  const HashFamily& hash_family() const { return store_.hash(); }
  // Adopts deserialized state after the caller filled raw_data_mutable().
  void RestoreState(const HashFamily& hash, std::uint64_t size,
                    std::uint64_t seed) {
    store_.Restore(hash, size, seed);
  }

  // Advanced: direct slot write + occupancy adjustment, for wrappers that
  // implement their own insertion discipline (ConcurrentCuckooTable's
  // BFS path-moves). Does not maintain the occupancy count.
  void WriteSlot(std::uint64_t bucket, unsigned slot, K key, V val) {
    store_.SetSlot(bucket, slot, key, val);
  }
  void AdjustSize(std::int64_t delta) { store_.AdjustSize(delta); }

  // Raw slot access for tests and for the insert path.
  K KeyAt(std::uint64_t bucket, unsigned slot) const {
    return store_.KeyAt<K>(bucket, slot);
  }
  V ValAt(std::uint64_t bucket, unsigned slot) const {
    return store_.ValAt<V>(bucket, slot);
  }

  // Read-only BFS for the shortest eviction chain placing `key`; fills
  // `path` root-first (path[0] receives the key, path.back() is an empty
  // slot). Shared with ConcurrentCuckooTable, which replays the path under
  // its own seqlock discipline. Writer-side (uses per-table scratch).
  bool FindInsertionPath(K key, std::vector<PathStep>* path);

  // Rebuild recovery (Porat & Shalem-style): re-inserts every stored entry
  // plus (key, val) into a staging table under freshly derived seeds.
  // Returns the staging table on success; nullopt when every candidate
  // seed failed, in which case further rebuilds are suppressed until
  // entries are erased. The live table is never touched — callers publish
  // via AdoptRebuilt (under their own concurrency discipline if needed).
  std::optional<CuckooTable<K, V>> BuildRecoveryTable(K key, V val);

  // Publishes a staging table built by BuildRecoveryTable into this
  // table's existing arena (shape-identical by construction), adopting its
  // hash family, seed, size and stash. Concurrent wrappers bracket this
  // with the write epoch + all stripes odd.
  void AdoptRebuilt(const CuckooTable<K, V>& staging);

  // Maximum eviction-walk length before a kRandomWalk insert gives up.
  static constexpr unsigned kMaxKicks = 512;
  // BFS budget: buckets examined / chain-length cap (see PathSearchLimits).
  static constexpr unsigned kMaxBfsNodes = 1024;
  static constexpr unsigned kMaxBfsDepth = 256;
  // Fresh seeds tried per rebuild recovery before declaring the table full.
  static constexpr unsigned kMaxRebuildAttempts = 4;

 private:
  std::uint32_t BucketOf(unsigned way, K key) const {
    return store_.Bucket<K>(way, key);
  }

  bool InsertBfs(K key, V val);
  bool InsertRandomWalk(K key, V val);
  bool TryRebuild(K key, V val);

  TableStore store_;
  const MutationKernel* mutation_kernel_;
  Xoshiro256 walk_rng_;
  PathSearchScratch scratch_;
  std::vector<PathStep> path_;
  InsertStats stats_;
  InsertPolicy insert_policy_ = InsertPolicy::kBfs;
  bool rebuild_enabled_ = true;
  // Occupancy at which the last rebuild failed; retrying below that size
  // can succeed (entries were erased), at or above it cannot.
  std::uint64_t rebuild_blocked_size_ = UINT64_MAX;
};

using CuckooTable16x32 = CuckooTable<std::uint16_t, std::uint32_t>;
using CuckooTable32 = CuckooTable<std::uint32_t, std::uint32_t>;
using CuckooTable64 = CuckooTable<std::uint64_t, std::uint64_t>;

extern template class CuckooTable<std::uint16_t, std::uint32_t>;
extern template class CuckooTable<std::uint32_t, std::uint32_t>;
extern template class CuckooTable<std::uint64_t, std::uint64_t>;

}  // namespace simdht

#endif  // SIMDHT_HT_CUCKOO_TABLE_H_
