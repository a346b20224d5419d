// Member definitions of CuckooTable, shared by its two instantiation units:
// cuckoo_table.cc (SingleWriter) and cuckoo_table_seqlock.cc
// (SeqlockWriters). Include it nowhere else; everything else sees the
// extern templates in ht/cuckoo_table.h.
//
// Each writer policy gets its own translation unit so the single-writer
// paths compile exactly as they would alone: with both policies in one
// unit, gcc's unit-growth inlining limit left slot stores of the batched
// write paths as out-of-line calls.
#ifndef SIMDHT_HT_CUCKOO_TABLE_IMPL_H_
#define SIMDHT_HT_CUCKOO_TABLE_IMPL_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"
#include "hash/block_hash.h"
#include "ht/cuckoo_table.h"

namespace simdht {

namespace detail {

template <typename K, typename V>
LayoutSpec SpecFor(unsigned ways, unsigned slots, BucketLayout layout) {
  LayoutSpec spec;
  spec.ways = ways;
  spec.slots = slots;
  spec.key_bits = sizeof(K) * 8;
  spec.val_bits = sizeof(V) * 8;
  spec.bucket_layout = layout;
  return spec;
}

// Graph adapter over a full-key TableStore for the shared BFS engine: roots
// are the new key's candidate buckets, edges lead from an occupant to the
// buckets it could be displaced into.
template <typename K>
struct CuckooPathGraph {
  const TableStore* store;
  K key;

  unsigned roots() const { return store->spec().ways; }
  std::uint64_t root(unsigned w) const {
    return store->Bucket<K>(w, key);
  }
  unsigned slots() const { return store->spec().slots; }
  bool empty_slot(std::uint64_t b, unsigned s) const {
    return store->KeyAt<K>(b, s) == static_cast<K>(kEmptyKey);
  }
  unsigned alts(std::uint64_t b, unsigned s, std::uint64_t* out) const {
    const K occupant = store->KeyAt<K>(b, s);
    if (occupant == static_cast<K>(kEmptyKey)) return 0;
    unsigned n = 0;
    for (unsigned w = 0; w < store->spec().ways; ++w) {
      const std::uint64_t alt = store->Bucket<K>(w, occupant);
      if (alt != b) out[n++] = alt;
    }
    return n;
  }
};

}  // namespace detail

template <typename K, typename V, typename W>
CuckooTable<K, V, W>::CuckooTable(unsigned ways, unsigned slots,
                                  std::uint64_t num_buckets,
                                  BucketLayout layout, std::uint64_t seed)
    : store_(TableShape::For(detail::SpecFor<K, V>(ways, slots, layout),
                            num_buckets),
             seed),
      cuckoo_scan_(
          MutationRegistry::Get().ForCuckoo()->cuckoo_scan_for(store_.spec())) {}

template <typename K, typename V, typename W>
bool CuckooTable<K, V, W>::Locate(K key, std::uint64_t* bucket,
                                  unsigned* slot) const {
  const LayoutSpec& spec = store_.spec();
  for (unsigned way = 0; way < spec.ways; ++way) {
    const std::uint32_t b = BucketOf(way, key);
    for (unsigned s = 0; s < spec.slots; ++s) {
      if (KeyAt(b, s) == key) {
        *bucket = b;
        *slot = s;
        return true;
      }
    }
  }
  return false;
}

template <typename K, typename V, typename W>
int CuckooTable<K, V, W>::StashIndexOf(K key) const {
  const unsigned stash_n = store_.stash_count();
  for (unsigned i = 0; i < stash_n; ++i) {
    if (store_.stash_at(i).key == static_cast<std::uint64_t>(key)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

template <typename K, typename V, typename W>
bool CuckooTable<K, V, W>::Find(K key, V* val) const {
  if (key == static_cast<K>(kEmptyKey)) return false;
  if constexpr (!kSeqlock) {
    std::uint64_t b;
    unsigned s;
    if (Locate(key, &b, &s)) {
      if (val != nullptr) *val = ValAt(b, s);
      return true;
    }
    const int i = StashIndexOf(key);
    if (i < 0) return false;
    if (val != nullptr) *val = static_cast<V>(store_.stash_at(i).val);
    return true;
  } else {
    const LayoutSpec& spec = store_.spec();
    for (;;) {
      // StashVersion doubles as the rebuild generation: every rebuild
      // publication brackets itself with it, so it MUST be snapshotted
      // before the hash family is read. Reading the hash first loses: a
      // rebuild can complete in between, and the stripe versions — all
      // even again and only snapshotted afterwards — would validate a
      // probe of buckets computed from the dead hash family.
      const std::uint64_t stash_before =
          store_.StashVersion().load(std::memory_order_acquire);
      bool writer_active = (stash_before & 1) != 0;

      // Candidate buckets are recomputed on every attempt: a rebuild
      // recovery can reseed the hash family mid-read.
      std::uint32_t buckets[kMaxWays];
      for (unsigned w = 0; w < spec.ways; ++w) buckets[w] = BucketOf(w, key);

      std::uint64_t before[kMaxWays];
      for (unsigned w = 0; w < spec.ways; ++w) {
        before[w] =
            store_.StripeFor(buckets[w]).load(std::memory_order_acquire);
        writer_active |= (before[w] & 1) != 0;
      }
      if (writer_active) continue;

      V found_val{};
      bool found = false;
      for (unsigned w = 0; w < spec.ways && !found; ++w) {
        for (unsigned s = 0; s < spec.slots; ++s) {
          if (KeyAt(buckets[w], s) == key) {
            found_val = ValAt(buckets[w], s);
            found = true;
            break;
          }
        }
      }
      if (!found) {
        const int i = StashIndexOf(key);
        if (i >= 0) {
          found_val = static_cast<V>(store_.stash_at(i).val);
          found = true;
        }
      }

      std::atomic_thread_fence(std::memory_order_acquire);
      bool stable = true;
      for (unsigned w = 0; w < spec.ways; ++w) {
        stable &= store_.StripeFor(buckets[w]).load(
                      std::memory_order_acquire) == before[w];
      }
      stable &= store_.StashVersion().load(std::memory_order_acquire) ==
                stash_before;
      if (stable) {
        if (found && val != nullptr) *val = found_val;
        return found;
      }
    }
  }
}

template <typename K, typename V, typename W>
bool CuckooTable<K, V, W>::FindInsertionPath(K key,
                                             std::vector<PathStep>* path) {
  detail::CuckooPathGraph<K> graph{&store_, key};
  PathSearchLimits limits;
  limits.max_nodes = kMaxBfsNodes;
  limits.max_depth = kMaxBfsDepth;
  return FindEvictionPath(graph, limits, &scratch_, path);
}

template <typename K, typename V, typename W>
int CuckooTable<K, V, W>::ReplayPath(K key, V val) {
  if (!FindInsertionPath(key, &path_)) return 0;
  // Apply the chain from the tail: each occupant is written to its
  // destination before its own slot is overwritten by the entry below it,
  // so no entry is ever absent. A single writer needs no intermediate
  // clears — every source slot is itself a destination of the next move,
  // or of the new key. A seqlocked replay holds the write epoch for the
  // whole chain, brackets each hop with both buckets' stripes and clears
  // the source, and re-validates each hop: if an earlier move of this very
  // replay changed the occupant, it stops with the table consistent.
  EpochEnter();
  for (std::size_t i = path_.size() - 1; i > 0; --i) {
    const PathStep& src = path_[i - 1];
    const PathStep& dst = path_[i];
    const K moved_key = KeyAt(src.bucket, src.slot);
    const V moved_val = ValAt(src.bucket, src.slot);
    if constexpr (kSeqlock) {
      bool valid = false;
      if (moved_key != static_cast<K>(kEmptyKey)) {
        for (unsigned w = 0; w < store_.spec().ways; ++w) {
          valid |= BucketOf(w, moved_key) == dst.bucket;
        }
      }
      if (!valid) {
        EpochExit();
        return -1;
      }
      store_.BumpOdd(dst.bucket);
      store_.BumpOdd(src.bucket);
      store_.SetSlot(dst.bucket, dst.slot, moved_key, moved_val);
      store_.SetSlot(src.bucket, src.slot, static_cast<K>(kEmptyKey), V{});
      store_.BumpEven(src.bucket);
      store_.BumpEven(dst.bucket);
    } else {
      store_.SetSlot(dst.bucket, dst.slot, moved_key, moved_val);
    }
  }
  const PathStep& home = path_.front();
  StripeOdd(home.bucket);
  store_.SetSlot(home.bucket, home.slot, key, val);
  StripeEven(home.bucket);
  store_.AdjustSize(1);
  if (path_.size() == 1) {
    ++stats_.direct_inserts;
  } else {
    ++stats_.path_inserts;
    stats_.path_moves += path_.size() - 1;
  }
  EpochExit();
  return 1;
}

template <typename K, typename V, typename W>
std::optional<CuckooTable<K, V>> CuckooTable<K, V, W>::BuildRecoveryTable(
    K key, V val) {
  if (!rebuild_enabled_) return std::nullopt;
  // A rebuild that failed at this occupancy fails again — the attempt is
  // O(n); only retry once entries have been erased.
  if (size() >= rebuild_blocked_size_) return std::nullopt;

  const LayoutSpec& spec = store_.spec();
  std::vector<std::pair<K, V>> entries;
  entries.reserve(static_cast<std::size_t>(size()) + 1);
  for (std::uint64_t b = 0; b < store_.num_buckets(); ++b) {
    for (unsigned s = 0; s < spec.slots; ++s) {
      const K k = KeyAt(b, s);
      if (k != static_cast<K>(kEmptyKey)) entries.push_back({k, ValAt(b, s)});
    }
  }
  const unsigned stash_n = store_.stash_count();
  for (unsigned i = 0; i < stash_n; ++i) {
    const StashEntry e = store_.stash_at(i);
    entries.push_back({static_cast<K>(e.key), static_cast<V>(e.val)});
  }
  entries.push_back({key, val});

  for (unsigned attempt = 1; attempt <= kMaxRebuildAttempts; ++attempt) {
    std::uint64_t seed =
        Mix64(store_.seed() + 0x9E3779B97F4A7C15ULL * attempt);
    if (seed == 0) seed = attempt;  // seed 0 means "default multipliers"
    CuckooTable<K, V> staging(spec.ways, spec.slots, store_.num_buckets(),
                              spec.bucket_layout, seed);
    staging.store_.set_stash_capacity(store_.stash_capacity());
    staging.rebuild_enabled_ = false;  // no recursive recovery
    bool ok = true;
    for (const auto& [k, v] : entries) {
      if (!staging.Insert(k, v)) {
        ok = false;
        break;
      }
    }
    if (ok) return staging;
  }
  rebuild_blocked_size_ = size();
  return std::nullopt;
}

template <typename K, typename V, typename W>
void CuckooTable<K, V, W>::AdoptRebuilt(const CuckooTable<K, V>& staging) {
  store_.AdoptArena(staging.store_.data());
  store_.Reseed(staging.store_.seed());
  store_.SetSize(staging.size());
  store_.StashClear();
  const unsigned stash_n = staging.store_.stash_count();
  for (unsigned i = 0; i < stash_n; ++i) {
    const StashEntry e = staging.store_.stash_at(i);
    store_.StashAppend(e.key, e.val);
  }
  ++stats_.rebuilds;
}

template <typename K, typename V, typename W>
bool CuckooTable<K, V, W>::TryRebuild(K key, V val) {
  // The staging table is built off to the side. A seqlocked publication
  // overwrites the live arena with the write epoch held and every stripe
  // and StashVersion odd, so readers that raced the copy retry and see only
  // the fully published table.
  std::optional<CuckooTable<K, V>> staging = BuildRecoveryTable(key, val);
  if (!staging) return false;
  EpochEnter();
  if constexpr (kSeqlock) store_.BumpAllOdd();
  StashOdd();
  AdoptRebuilt(*staging);
  StashEven();
  if constexpr (kSeqlock) store_.BumpAllEven();
  EpochExit();
  return true;
}

template <typename K, typename V, typename W>
bool CuckooTable<K, V, W>::Insert(K key, V val) {
  // Key 0 is the empty-slot sentinel: storing it would silently corrupt
  // occupancy accounting (and Erase(0) would "free" an empty slot), so it
  // is rejected in every build mode — not just under assert.
  if (key == static_cast<K>(kEmptyKey)) return false;
  std::lock_guard lock(writer_mu_);
  return InsertLocked(key, val);
}

template <typename K, typename V, typename W>
bool CuckooTable<K, V, W>::InsertLocked(K key, V val) {
  // Overwrite if present (cuckoo invariant: at most one copy of a key).
  std::uint64_t b;
  unsigned s;
  if (Locate(key, &b, &s)) {
    EpochEnter();
    StripeOdd(b);
    store_.SetSlot(b, s, key, val);
    StripeEven(b);
    EpochExit();
    return true;
  }
  const int i = StashIndexOf(key);
  if (i >= 0) {
    // Single aligned word store: readers observe old or new.
    store_.StashSetVal(static_cast<unsigned>(i),
                       static_cast<std::uint64_t>(val));
    return true;
  }

  for (int attempt = 0; attempt < kMaxReplayAttempts; ++attempt) {
    const int rc = ReplayPath(key, val);
    if (rc > 0) return true;
    if (rc == 0) break;  // no path: fall through to stash / rebuild
  }

  // No eviction path: spill to the overflow stash. An append publishes the
  // entry before the count (release), so readers need no retry.
  if (store_.StashAppend(static_cast<std::uint64_t>(key),
                         static_cast<std::uint64_t>(val))) {
    store_.AdjustSize(1);
    ++stats_.stash_inserts;
    return true;
  }

  // Stash full too: last resort, rebuild everything under a fresh seed.
  if (TryRebuild(key, val)) return true;

  ++stats_.failed_inserts;
  return false;
}

template <typename K, typename V, typename W>
void CuckooTable<K, V, W>::HashIntoRing(const K* keys, std::size_t from,
                                        std::size_t to,
                                        std::uint32_t* ring) const {
  const unsigned ways = store_.spec().ways;
  BlockBuckets<K>(store_.hash(), ways, keys + from, to - from,
                  ring + from % kWriteRing * ways);
}

template <typename K, typename V, typename W>
void CuckooTable<K, V, W>::BatchInsert(const MutationBatch<K, V>& batch) {
  std::lock_guard lock(writer_mu_);
  // Locals, not fields: the ok[] byte stores may alias anything, so fields
  // read through `batch` or `this` would be reloaded on every key. The arena
  // never moves (a rebuild copies into it), so data and stride stay valid.
  const K* const keys = batch.keys;
  const V* const vals = batch.vals;
  std::uint8_t* const ok = batch.ok;
  const std::size_t n = batch.size;
  const CuckooScanFn scan = cuckoo_scan_;
  TableView view = store_.view();
  std::uint64_t seed = store_.seed();
  const std::uint8_t* const data = view.data;
  const std::size_t stride = view.spec.bucket_bytes();
  const unsigned ways = view.spec.ways;
  const unsigned slot_shift = Log2Floor(view.spec.slots);
  const unsigned slot_mask = view.spec.slots - 1;
  constexpr std::size_t d = kCuckooWritePrefetchDistance;

  std::uint32_t ring[kWriteRing * kMaxWays];
  HashIntoRing(keys, 0, std::min(n, kMutationChunk), ring);
  for (std::size_t i = 0; i < std::min(n, d); ++i) {
    PrefetchCandidatesForWrite(data, stride, ways, ring + i * ways);
  }
  for (std::size_t tile = 0; tile < n; tile += kMutationChunk) {
    const std::size_t next = tile + kMutationChunk;
    const std::size_t next_end = std::min(n, next + kMutationChunk);
    if (next < n) HashIntoRing(keys, next, next_end, ring);
    const std::size_t end = std::min(n, next);
    for (std::size_t i = tile; i < end; ++i) {
      if (i + d < n) {
        PrefetchCandidatesForWrite(data, stride, ways,
                                   ring + (i + d) % kWriteRing * ways);
      }
      const K key = keys[i];
      std::uint8_t r = 1;
      if (key == static_cast<K>(kEmptyKey)) {
        r = 0;
      } else {
        const std::uint32_t* candidates = ring + i % kWriteRing * ways;
        const CuckooScan hit = scan(view, candidates, key);
        if (hit.match != 0) {
          // Duplicate: overwrite in place (cuckoo invariant: at most one
          // copy), exactly where and how the scalar duplicate pass would.
          const unsigned lane = __builtin_ctz(hit.match);
          const std::uint32_t b = candidates[lane >> slot_shift];
          EpochEnter();
          StripeOdd(b);
          store_.SetSlot(b, lane & slot_mask, key, vals[i]);
          StripeEven(b);
          EpochExit();
        } else if (const int j = StashIndexOf(key); j >= 0) {
          store_.StashSetVal(static_cast<unsigned>(j),
                             static_cast<std::uint64_t>(vals[i]));
        } else if (hit.empty != 0) {
          // Direct insert: the first way with an empty slot, lowest slot --
          // the placement (and publication) of a BFS path of length one.
          const unsigned lane = __builtin_ctz(hit.empty);
          const std::uint32_t b = candidates[lane >> slot_shift];
          EpochEnter();
          StripeOdd(b);
          store_.SetSlot(b, lane & slot_mask, key, vals[i]);
          StripeEven(b);
          store_.AdjustSize(1);
          ++stats_.direct_inserts;
          EpochExit();
        } else {
          // Conflict tail: every candidate bucket is full. Run the scalar
          // core (eviction path / stash spill / rebuild recovery).
          r = InsertLocked(key, vals[i]) ? 1 : 0;
          if (store_.seed() != seed) {
            // A rebuild reseeded the hash family: every candidate hashed
            // past key i is stale -- the rest of this tile, and the next
            // tile when it has been hashed already.
            seed = store_.seed();
            view = store_.view();
            HashIntoRing(keys, i + 1, end, ring);
            if (next < n) HashIntoRing(keys, next, next_end, ring);
          }
        }
      }
      if (ok != nullptr) ok[i] = r;
    }
  }
}

template <typename K, typename V, typename W>
void CuckooTable<K, V, W>::BatchUpdate(const MutationBatch<K, V>& batch) {
  std::lock_guard lock(writer_mu_);
  // The schedule and locals of BatchInsert; updates never reseed.
  const K* const keys = batch.keys;
  const V* const vals = batch.vals;
  std::uint8_t* const ok = batch.ok;
  const std::size_t n = batch.size;
  const CuckooScanFn scan = cuckoo_scan_;
  const TableView view = store_.view();
  const std::uint8_t* const data = view.data;
  const std::size_t stride = view.spec.bucket_bytes();
  const unsigned ways = view.spec.ways;
  const unsigned slot_shift = Log2Floor(view.spec.slots);
  const unsigned slot_mask = view.spec.slots - 1;
  constexpr std::size_t d = kCuckooWritePrefetchDistance;

  std::uint32_t ring[kWriteRing * kMaxWays];
  HashIntoRing(keys, 0, std::min(n, kMutationChunk), ring);
  for (std::size_t i = 0; i < std::min(n, d); ++i) {
    PrefetchCandidatesForWrite(data, stride, ways, ring + i * ways);
  }
  for (std::size_t tile = 0; tile < n; tile += kMutationChunk) {
    const std::size_t next = tile + kMutationChunk;
    if (next < n) {
      HashIntoRing(keys, next, std::min(n, next + kMutationChunk), ring);
    }
    const std::size_t end = std::min(n, next);
    for (std::size_t i = tile; i < end; ++i) {
      if (i + d < n) {
        PrefetchCandidatesForWrite(data, stride, ways,
                                   ring + (i + d) % kWriteRing * ways);
      }
      const K key = keys[i];
      std::uint8_t r = 0;
      if (key != static_cast<K>(kEmptyKey)) {
        const std::uint32_t* candidates = ring + i % kWriteRing * ways;
        const std::uint32_t match = scan(view, candidates, key).match;
        if (match != 0) {
          // The same stripe bracket (no epoch) as the per-key UpdateValue.
          const unsigned lane = __builtin_ctz(match);
          const std::uint32_t b = candidates[lane >> slot_shift];
          StripeOdd(b);
          store_.SetVal(b, lane & slot_mask, vals[i]);
          StripeEven(b);
          r = 1;
        } else if (const int j = StashIndexOf(key); j >= 0) {
          store_.StashSetVal(static_cast<unsigned>(j),
                             static_cast<std::uint64_t>(vals[i]));
          r = 1;
        }
      }
      if (ok != nullptr) ok[i] = r;
    }
  }
}

template <typename K, typename V, typename W>
bool CuckooTable<K, V, W>::UpdateValue(K key, V val) {
  if (key == static_cast<K>(kEmptyKey)) return false;
  std::lock_guard lock(writer_mu_);
  std::uint64_t b;
  unsigned s;
  if (Locate(key, &b, &s)) {
    // Single aligned word store: readers see old or new; the stripe bump
    // makes a seqlocked Find that raced it re-read.
    StripeOdd(b);
    store_.SetVal(b, s, val);
    StripeEven(b);
    return true;
  }
  const int i = StashIndexOf(key);
  if (i < 0) return false;
  store_.StashSetVal(static_cast<unsigned>(i),
                     static_cast<std::uint64_t>(val));
  return true;
}

template <typename K, typename V, typename W>
bool CuckooTable<K, V, W>::Erase(K key) {
  if (key == static_cast<K>(kEmptyKey)) return false;
  std::lock_guard lock(writer_mu_);
  std::uint64_t b;
  unsigned s;
  if (Locate(key, &b, &s)) {
    EpochEnter();
    StripeOdd(b);
    store_.SetSlot(b, s, static_cast<K>(kEmptyKey), V{});
    StripeEven(b);
    store_.AdjustSize(-1);
    EpochExit();
    return true;
  }
  const int i = StashIndexOf(key);
  if (i < 0) return false;
  // Swap-remove mutates entry `i` in place: seqlocked readers validate
  // against StashVersion (scalar Find) or the write epoch (batches).
  EpochEnter();
  StashOdd();
  store_.StashRemoveAt(static_cast<unsigned>(i));
  StashEven();
  store_.AdjustSize(-1);
  EpochExit();
  return true;
}

}  // namespace simdht

#endif  // SIMDHT_HT_CUCKOO_TABLE_IMPL_H_
