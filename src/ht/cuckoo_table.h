// Runtime-configurable (N, m) cuckoo hash table.
//
// One class covers every variant the paper evaluates: non-bucketized N-way
// cuckoo tables (m = 1, Fig 1a) and bucketized cuckoo hash tables (m > 1,
// Fig 1b), in interleaved or split bucket layout, over 16/32/64-bit keys.
//
// This is a *policy* class: all storage concerns (bucket arena, shape
// resolution, seqlock stripes, TableView construction) live in the shared
// TableStore (ht/table_store.h); CuckooTable only decides what to write.
// Inserts run the shared BFS path-search engine (ht/path_search.h) —
// shortest eviction chain, read-only search, so a failed insert makes zero
// writes. When no path exists the key spills to a small overflow stash, and
// when even the stash is full a reseed-and-rebuild recovery pass re-inserts
// the whole table under a fresh hash family before Insert reports failure.
//
// How writes are published to readers is a compile-time writer policy, so
// every write operation has exactly one body:
//
//  * SingleWriter (the default): one thread owns the table. Writes are plain
//    stores; no seqlock counter or lock is touched, and the policy compiles
//    away.
//  * SeqlockWriters (alias ConcurrentCuckooTable): MemC3's optimistic
//    concurrency (Section II-B / [12]) generalized to every (N, m) layout.
//    Writers serialize on a mutex and bracket each write with the store's
//    striped seqlock versions, write epoch and StashVersion. Readers never
//    lock: Find validates the stripes of its candidate buckets, BatchLookup
//    validates the write epoch around each kernel call. Path moves are
//    replayed back-to-front with every hop validated, so a key is never
//    absent mid-move (readers may transiently see it twice, which is
//    harmless). This is the substrate the paper's future work ("concurrent
//    reads and updates") needs: inserts and erases racing SIMD batch lookups.
//
// Lookups through the class are the scalar reference; SIMD batch lookups go
// through the kernel registry using view().
#ifndef SIMDHT_HT_CUCKOO_TABLE_H_
#define SIMDHT_HT_CUCKOO_TABLE_H_

#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/compiler.h"
#include "ht/mutation.h"
#include "ht/path_search.h"
#include "ht/table_store.h"

namespace simdht {

// Writer policy: one thread owns the table; nothing is published.
struct SingleWriter {
  struct Mutex {
    void lock() {}
    void unlock() {}
  };
};

// Writer policy: writers serialize on a mutex and publish every write
// through the TableStore seqlock, so lock-free readers may race them.
struct SeqlockWriters {
  using Mutex = std::mutex;
};

// Writer-side insertion counters (racy reads are fine for reporting).
struct InsertStats {
  std::uint64_t direct_inserts = 0;  // empty candidate slot, no eviction
  std::uint64_t path_inserts = 0;    // placed via an eviction chain
  std::uint64_t path_moves = 0;      // total entries displaced by chains
  std::uint64_t stash_inserts = 0;   // spilled to the overflow stash
  std::uint64_t rebuilds = 0;        // successful reseed-and-rebuild passes
  std::uint64_t failed_inserts = 0;  // Insert() returned false
};

// K in {uint16_t, uint32_t, uint64_t}; V in {uint32_t, uint64_t};
// Writers in {SingleWriter, SeqlockWriters}.
template <typename K, typename V, typename Writers = SingleWriter>
class CuckooTable {
  static_assert(std::is_same_v<Writers, SingleWriter> ||
                    std::is_same_v<Writers, SeqlockWriters>,
                "unknown writer policy");
  static constexpr bool kSeqlock = std::is_same_v<Writers, SeqlockWriters>;

 public:
  // `num_buckets` is rounded up to a power of two (>= 2).
  // `seed` randomizes hash multipliers; seed 0 gives the deterministic
  // default family.
  CuckooTable(unsigned ways, unsigned slots, std::uint64_t num_buckets,
              BucketLayout layout, std::uint64_t seed = 0);

  // Single-writer tables move; seqlocked ones own a mutex and do not.
  CuckooTable(CuckooTable&&) noexcept = default;
  CuckooTable& operator=(CuckooTable&&) noexcept = default;

  // Seqlocked only: takes over a table built single-threaded — typically a
  // loaded snapshot — to serve it to concurrent readers.
  explicit CuckooTable(CuckooTable<K, V>&& built)
    requires kSeqlock
      : store_(std::move(built.store_)),
        cuckoo_scan_(built.cuckoo_scan_),
        stats_(built.stats_),
        rebuild_enabled_(built.rebuild_enabled_),
        rebuild_blocked_size_(built.rebuild_blocked_size_) {}

  // Inserts or overwrites. Key 0 is the empty-slot sentinel and is rejected
  // (returns false) — in every build mode, not just under assert. Returns
  // false only when the table is genuinely full for this key set: no
  // eviction path within the BFS budget, stash full, and rebuild recovery
  // (if enabled) could not place everything under a fresh seed. A failed
  // Insert leaves the table contents bit-identical.
  bool Insert(K key, V val);

  // Batched mutation surface (ht/mutation.h). Bit-identical to calling
  // Insert(keys[i], vals[i]) in batch order — same table bytes, stash,
  // stats and ok results, and under SeqlockWriters the same publication
  // per key — but keys are block-hashed a tile at a time, key i +
  // kCuckooWritePrefetchDistance's candidate buckets are prefetched right
  // before key i is scanned, and one mutation-kernel call scans all of key
  // i's candidates for both the duplicate and the first empty slot. Only
  // keys whose candidates are all full fall back to the scalar core; when
  // that core reseeds (rebuild recovery), every candidate already hashed is
  // hashed again. Seqlocked tables take the writer mutex once per batch.
  void BatchInsert(const MutationBatch<K, V>& batch);

  // Batched UpdateValue on BatchInsert's schedule: ok[i] = key present
  // (value overwritten in place).
  void BatchUpdate(const MutationBatch<K, V>& batch);

  // Scalar reference lookup (the paper's "Scalar" baseline inner step).
  // Probes the candidate buckets, then the overflow stash. Seqlocked tables
  // validate the probe against the candidate stripes and StashVersion and
  // retry on a racing write.
  bool Find(K key, V* val) const;

  // Overwrites the value of an existing key without any cuckoo relocation.
  // Returns false if the key is absent. The key never moves and the value
  // is a single aligned word, so readers observe either the old or the new
  // value — the primitive behind the mixed read/update workloads of
  // Section VII's future work.
  bool UpdateValue(K key, V val);

  // Removes the key if present (buckets or stash).
  bool Erase(K key);

  // Batched lookup through any lookup kernel (typically a lambda wrapping
  // KernelInfo::Lookup, or anything with the raw (view, keys, vals, found,
  // n) call shape), validated against the global write epoch per chunk.
  // Chunks that raced a structural writer are retried with progressively
  // smaller chunks; if the writer churns faster than even a small chunk can
  // validate, the chunk falls back to per-key seqlock lookups — progress is
  // always guaranteed.
  template <typename LookupCallable>
    requires kSeqlock
  std::uint64_t BatchLookup(LookupCallable&& lookup, const K* keys, V* vals,
                            std::uint8_t* found, std::size_t n) const {
    constexpr std::size_t kMaxChunk = 512;
    constexpr int kRetriesPerSize = 2;
    std::uint64_t hits = 0;
    std::size_t off = 0;
    std::size_t chunk = kMaxChunk;
    while (off < n) {
      const std::size_t len = n - off < chunk ? n - off : chunk;
      bool done = false;
      for (std::size_t size = len; !done;) {
        int retries = kRetriesPerSize;
        while (retries-- > 0) {
          const std::uint64_t e0 = store_.EpochBegin();
          if (e0 & 1) continue;  // structural write in flight
          // The view is re-captured per attempt: a rebuild recovery can
          // reseed the hash family and the stash grows/shrinks — a view
          // cached across the epoch check would probe stale buckets.
          const TableView batch_view = store_.view();
          const std::uint64_t chunk_hits =
              lookup(batch_view, keys + off, vals + off, found + off, size);
          if (store_.EpochValidate(e0)) {
            hits += chunk_hits;
            off += size;
            done = true;
            break;
          }
        }
        if (done) break;
        if (size > 32) {
          size /= 4;  // shrink: shorter window, better validation odds
          continue;
        }
        // Writer churn outpaces kernel validation: per-key seqlock path.
        for (std::size_t i = 0; i < size; ++i) {
          V value{};
          const bool ok = Find(keys[off + i], &value);
          vals[off + i] = ok ? value : V{0};
          found[off + i] = ok ? 1 : 0;
          hits += ok;
        }
        off += size;
        done = true;
      }
    }
    return hits;
  }

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
  void set_stash_capacity(unsigned cap) { store_.set_stash_capacity(cap); }
  unsigned stash_count() const { return store_.stash_count(); }
  bool rebuild_enabled() const { return rebuild_enabled_; }
  void set_rebuild_enabled(bool enabled) { rebuild_enabled_ = enabled; }
  const InsertStats& insert_stats() const { return stats_; }

  // Read-only view for lookup kernels.
  TableView view() const { return store_.view(); }

  // The storage layer: arena, hash family, stash and the seqlock counters
  // this table's writer policy publishes through.
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

  // Raw slot access for tests and for the insert path.
  K KeyAt(std::uint64_t bucket, unsigned slot) const {
    return store_.KeyAt<K>(bucket, slot);
  }
  V ValAt(std::uint64_t bucket, unsigned slot) const {
    return store_.ValAt<V>(bucket, slot);
  }

  // Read-only BFS for the shortest eviction chain placing `key`; fills
  // `path` root-first (path[0] receives the key, path.back() is an empty
  // slot). Writer-side (uses per-table scratch).
  bool FindInsertionPath(K key, std::vector<PathStep>* path);

  // BFS budget: buckets examined / chain-length cap (see PathSearchLimits).
  static constexpr unsigned kMaxBfsNodes = 1024;
  static constexpr unsigned kMaxBfsDepth = 256;
  // Fresh seeds tried per rebuild recovery before declaring the table full.
  static constexpr unsigned kMaxRebuildAttempts = 4;

 private:
  // Seqlocked replays that found a hop invalidated by an earlier hop of the
  // same chain search again this many times before the key spills.
  static constexpr int kMaxReplayAttempts = 8;

  template <typename, typename, typename>
  friend class CuckooTable;

  std::uint32_t BucketOf(unsigned way, K key) const {
    return store_.Bucket<K>(way, key);
  }

  // Finds (bucket, slot) of `key` in its candidate buckets / its stash
  // index (-1 when absent). Writer-side: no seqlock validation.
  bool Locate(K key, std::uint64_t* bucket, unsigned* slot) const;
  int StashIndexOf(K key) const;

  // Insert body; the caller holds the writer mutex (shared by Insert and
  // the batched conflict tail).
  bool InsertLocked(K key, V val);

  // One BFS search + back-to-front path replay: 1 = placed, 0 = no path,
  // -1 = a seqlocked replay found a hop invalidated by an earlier hop of
  // the same chain and stopped (every completed hop left the table
  // consistent, so the caller searches again).
  int ReplayPath(K key, V val);

  // Rebuild recovery (Porat & Shalem-style): re-inserts every stored entry
  // plus (key, val) into a single-writer staging table under freshly
  // derived seeds, then publishes it into this table's arena. Returns false
  // when every candidate seed failed, in which case further rebuilds are
  // suppressed until entries are erased. A failed rebuild never touches the
  // live table.
  bool TryRebuild(K key, V val);
  std::optional<CuckooTable<K, V>> BuildRecoveryTable(K key, V val);
  void AdoptRebuilt(const CuckooTable<K, V>& staging);

  // Candidate ring of the batched writes: two kMutationChunk tiles, key i's
  // candidates at ring[i % kWriteRing * ways]. The next tile is hashed when
  // a tile starts, so the prefetched key is always hashed already.
  static constexpr std::size_t kWriteRing = 2 * kMutationChunk;

  // Block-hashes keys[from, to) into the ring; the range lies in one tile.
  SIMDHT_ALWAYS_INLINE void HashIntoRing(const K* keys, std::size_t from,
                                         std::size_t to,
                                         std::uint32_t* ring) const;

  // Seqlock steps; each compiles to nothing under SingleWriter.
  void EpochEnter() {
    if constexpr (kSeqlock) store_.EpochEnterWrite();
  }
  void EpochExit() {
    if constexpr (kSeqlock) store_.EpochExitWrite();
  }
  void StripeOdd(std::uint64_t bucket) {
    if constexpr (kSeqlock) store_.BumpOdd(bucket);
  }
  void StripeEven(std::uint64_t bucket) {
    if constexpr (kSeqlock) store_.BumpEven(bucket);
  }
  void StashOdd() {
    if constexpr (kSeqlock) {
      store_.StashVersion().fetch_add(1, std::memory_order_acq_rel);
    }
  }
  void StashEven() {
    if constexpr (kSeqlock) {
      store_.StashVersion().fetch_add(1, std::memory_order_release);
    }
  }

  TableStore store_;
  CuckooScanFn cuckoo_scan_;
  PathSearchScratch scratch_;
  std::vector<PathStep> path_;
  InsertStats stats_;
  bool rebuild_enabled_ = true;
  // Occupancy at which the last rebuild failed; retrying below that size
  // can succeed (entries were erased), at or above it cannot.
  std::uint64_t rebuild_blocked_size_ = UINT64_MAX;
  [[no_unique_address]] typename Writers::Mutex writer_mu_;
};

template <typename K, typename V>
using ConcurrentCuckooTable = CuckooTable<K, V, SeqlockWriters>;

using CuckooTable16x32 = CuckooTable<std::uint16_t, std::uint32_t>;
using CuckooTable32 = CuckooTable<std::uint32_t, std::uint32_t>;
using CuckooTable64 = CuckooTable<std::uint64_t, std::uint64_t>;
using ConcurrentCuckooTable32 =
    ConcurrentCuckooTable<std::uint32_t, std::uint32_t>;
using ConcurrentCuckooTable64 =
    ConcurrentCuckooTable<std::uint64_t, std::uint64_t>;

extern template class CuckooTable<std::uint16_t, std::uint32_t, SingleWriter>;
extern template class CuckooTable<std::uint32_t, std::uint32_t, SingleWriter>;
extern template class CuckooTable<std::uint64_t, std::uint64_t, SingleWriter>;
extern template class CuckooTable<std::uint16_t, std::uint32_t, SeqlockWriters>;
extern template class CuckooTable<std::uint32_t, std::uint32_t, SeqlockWriters>;
extern template class CuckooTable<std::uint64_t, std::uint64_t, SeqlockWriters>;

}  // namespace simdht

#endif  // SIMDHT_HT_CUCKOO_TABLE_H_
