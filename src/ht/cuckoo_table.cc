#include "ht/cuckoo_table.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "hash/block_hash.h"

namespace simdht {

namespace {

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

}  // namespace

const char* InsertPolicyName(InsertPolicy policy) {
  switch (policy) {
    case InsertPolicy::kBfs: return "bfs";
    case InsertPolicy::kRandomWalk: return "walk";
  }
  return "?";
}

template <typename K, typename V>
CuckooTable<K, V>::CuckooTable(unsigned ways, unsigned slots,
                               std::uint64_t num_buckets, BucketLayout layout,
                               std::uint64_t seed)
    : store_(TableShape::For(SpecFor<K, V>(ways, slots, layout), num_buckets),
             seed),
      mutation_kernel_(MutationRegistry::Get().ForCuckoo(store_.spec())),
      walk_rng_(seed ^ 0xA5A5A5A55A5A5A5AULL) {}

template <typename K, typename V>
bool CuckooTable<K, V>::Find(K key, V* val) const {
  if (key == static_cast<K>(kEmptyKey)) return false;
  const LayoutSpec& spec = store_.spec();
  for (unsigned way = 0; way < spec.ways; ++way) {
    const std::uint32_t b = BucketOf(way, key);
    for (unsigned s = 0; s < spec.slots; ++s) {
      if (KeyAt(b, s) == key) {
        if (val != nullptr) *val = ValAt(b, s);
        return true;
      }
    }
  }
  const unsigned stash_n = store_.stash_count();
  for (unsigned i = 0; i < stash_n; ++i) {
    const StashEntry e = store_.stash_at(i);
    if (e.key == static_cast<std::uint64_t>(key)) {
      if (val != nullptr) *val = static_cast<V>(e.val);
      return true;
    }
  }
  return false;
}

template <typename K, typename V>
bool CuckooTable<K, V>::FindInsertionPath(K key,
                                          std::vector<PathStep>* path) {
  CuckooPathGraph<K> graph{&store_, key};
  PathSearchLimits limits;
  limits.max_nodes = kMaxBfsNodes;
  limits.max_depth = kMaxBfsDepth;
  return FindEvictionPath(graph, limits, &scratch_, path);
}

template <typename K, typename V>
bool CuckooTable<K, V>::InsertBfs(K key, V val) {
  if (!FindInsertionPath(key, &path_)) return false;
  // Apply the chain from the tail: each occupant is written to its
  // destination before its own slot is overwritten by the entry below it,
  // so a partial application never loses an entry. (Single-writer tables
  // need no intermediate clears — every source slot is itself a
  // destination of the next move, or of the new key.)
  for (std::size_t i = path_.size() - 1; i > 0; --i) {
    const PathStep& src = path_[i - 1];
    const PathStep& dst = path_[i];
    store_.SetSlot(dst.bucket, dst.slot, KeyAt(src.bucket, src.slot),
                   ValAt(src.bucket, src.slot));
  }
  store_.SetSlot(path_.front().bucket, path_.front().slot, key, val);
  store_.AdjustSize(1);
  if (path_.size() == 1) {
    ++stats_.direct_inserts;
  } else {
    ++stats_.path_inserts;
    stats_.path_moves += path_.size() - 1;
  }
  return true;
}

template <typename K, typename V>
bool CuckooTable<K, V>::InsertRandomWalk(K key, V val) {
  const LayoutSpec& spec = store_.spec();

  // Random-walk eviction: place into any empty candidate slot; otherwise
  // kick a random occupant to one of *its* alternate buckets and repeat.
  // Every displacement is recorded so a failed walk can be unwound — a
  // failed walk leaves the table exactly as it was.
  struct Step {
    std::uint32_t bucket;
    unsigned slot;
  };
  std::vector<Step> path;
  path.reserve(64);

  K cur_key = key;
  V cur_val = val;
  for (unsigned kick = 0; kick < kMaxKicks; ++kick) {
    for (unsigned way = 0; way < spec.ways; ++way) {
      const std::uint32_t b = BucketOf(way, cur_key);
      for (unsigned s = 0; s < spec.slots; ++s) {
        if (KeyAt(b, s) == static_cast<K>(kEmptyKey)) {
          store_.SetSlot(b, s, cur_key, cur_val);
          store_.AdjustSize(1);
          if (path.empty()) {
            ++stats_.direct_inserts;
          } else {
            ++stats_.path_inserts;
          }
          return true;
        }
      }
    }
    const auto victim_way =
        static_cast<unsigned>(walk_rng_.NextBounded(spec.ways));
    const auto victim_slot =
        static_cast<unsigned>(walk_rng_.NextBounded(spec.slots));
    const std::uint32_t b = BucketOf(victim_way, cur_key);
    const K evicted_key = KeyAt(b, victim_slot);
    const V evicted_val = ValAt(b, victim_slot);
    store_.SetSlot(b, victim_slot, cur_key, cur_val);
    path.push_back({b, victim_slot});
    ++stats_.walk_kicks;
    cur_key = evicted_key;
    cur_val = evicted_val;
  }

  // Walk exhausted: unwind the displacements in reverse so every previously
  // stored entry is back in its original slot and `key` is not inserted.
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const K displaced_key = KeyAt(it->bucket, it->slot);
    const V displaced_val = ValAt(it->bucket, it->slot);
    store_.SetSlot(it->bucket, it->slot, cur_key, cur_val);
    cur_key = displaced_key;
    cur_val = displaced_val;
  }
  // After unwinding the carried entry is the original key/val again.
  return false;
}

template <typename K, typename V>
std::optional<CuckooTable<K, V>> CuckooTable<K, V>::BuildRecoveryTable(
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

template <typename K, typename V>
void CuckooTable<K, V>::AdoptRebuilt(const CuckooTable<K, V>& staging) {
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

template <typename K, typename V>
bool CuckooTable<K, V>::TryRebuild(K key, V val) {
  std::optional<CuckooTable<K, V>> staging = BuildRecoveryTable(key, val);
  if (!staging) return false;
  AdoptRebuilt(*staging);
  return true;
}

template <typename K, typename V>
bool CuckooTable<K, V>::Insert(K key, V val) {
  // Key 0 is the empty-slot sentinel: storing it would silently corrupt
  // occupancy accounting (and Erase(0) would "free" an empty slot), so it
  // is rejected in every build mode — not just under assert.
  if (key == static_cast<K>(kEmptyKey)) return false;
  const LayoutSpec& spec = store_.spec();

  // Overwrite if present (cuckoo invariant: at most one copy of a key).
  for (unsigned way = 0; way < spec.ways; ++way) {
    const std::uint32_t b = BucketOf(way, key);
    for (unsigned s = 0; s < spec.slots; ++s) {
      if (KeyAt(b, s) == key) {
        store_.SetSlot(b, s, key, val);
        return true;
      }
    }
  }
  const unsigned stash_n = store_.stash_count();
  for (unsigned i = 0; i < stash_n; ++i) {
    if (store_.stash_at(i).key == static_cast<std::uint64_t>(key)) {
      store_.StashSetVal(i, static_cast<std::uint64_t>(val));
      return true;
    }
  }

  const bool placed = insert_policy_ == InsertPolicy::kRandomWalk
                          ? InsertRandomWalk(key, val)
                          : InsertBfs(key, val);
  if (placed) return true;

  // No eviction path: spill to the overflow stash.
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

template <typename K, typename V>
void CuckooTable<K, V>::BatchInsert(const MutationBatch<K, V>& batch) {
  const unsigned ways = store_.spec().ways;
  std::uint32_t buckets[kMutationChunk * kMaxWays];
  for (std::size_t base = 0; base < batch.size; base += kMutationChunk) {
    const std::size_t n = std::min(kMutationChunk, batch.size - base);
    const K* keys = batch.keys + base;
    const V* vals = batch.vals + base;
    std::uint64_t chunk_seed = store_.seed();
    TableView view = store_.view();
    BlockBuckets<K>(store_.hash(), ways, keys, n, buckets);
    for (std::size_t i = 0; i < n; ++i) {
      for (unsigned w = 0; w < ways; ++w) {
        PrefetchBucketForWrite(view, buckets[i * ways + w]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const K key = keys[i];
      std::uint8_t r = 1;
      bool done = false;
      if (key == static_cast<K>(kEmptyKey)) {
        r = 0;
        done = true;
      }
      // A scalar-core fallback can reseed (rebuild recovery); the rest of
      // the chunk's block-hashed candidates are then stale. Seed-gate and
      // re-hash the unprocessed tail.
      if (!done && store_.seed() != chunk_seed) {
        chunk_seed = store_.seed();
        view = store_.view();
        BlockBuckets<K>(store_.hash(), ways, keys + i, n - i,
                        buckets + i * ways);
      }
      if (!done) {
        const auto key_w = static_cast<std::uint64_t>(key);
        int place_way = -1;
        int place_slot = -1;
        for (unsigned w = 0; w < ways; ++w) {
          const std::uint32_t b = buckets[i * ways + w];
          const BucketScan scan =
              mutation_kernel_->bucket_scan(view, b, key_w);
          if (scan.match_slot >= 0) {
            // Duplicate: overwrite in place (cuckoo invariant — at most
            // one copy), exactly where the scalar dup pass would.
            store_.SetSlot(b, static_cast<unsigned>(scan.match_slot), key,
                           vals[i]);
            done = true;
            break;
          }
          if (place_way < 0 && scan.empty_slot >= 0) {
            place_way = static_cast<int>(w);
            place_slot = scan.empty_slot;
          }
        }
        if (!done) {
          const unsigned stash_n = store_.stash_count();
          for (unsigned j = 0; j < stash_n; ++j) {
            if (store_.stash_at(j).key == key_w) {
              store_.StashSetVal(j, static_cast<std::uint64_t>(vals[i]));
              done = true;
              break;
            }
          }
        }
        if (!done && place_way >= 0) {
          // Direct insert: the first way with an empty slot, lowest slot —
          // the placement both the BFS root scan (path length one) and the
          // random walk's first iteration produce, with no RNG consumed.
          store_.SetSlot(buckets[i * ways + place_way],
                         static_cast<unsigned>(place_slot), key, vals[i]);
          store_.AdjustSize(1);
          ++stats_.direct_inserts;
          done = true;
        }
        if (!done) {
          // Conflict tail: every candidate bucket is full. Run the scalar
          // core (eviction path / stash spill / rebuild recovery).
          r = Insert(key, vals[i]) ? 1 : 0;
        }
      }
      if (batch.ok != nullptr) batch.ok[base + i] = r;
    }
  }
}

template <typename K, typename V>
void CuckooTable<K, V>::BatchUpdate(const MutationBatch<K, V>& batch) {
  const unsigned ways = store_.spec().ways;
  std::uint32_t buckets[kMutationChunk * kMaxWays];
  for (std::size_t base = 0; base < batch.size; base += kMutationChunk) {
    const std::size_t n = std::min(kMutationChunk, batch.size - base);
    const K* keys = batch.keys + base;
    const V* vals = batch.vals + base;
    const TableView view = store_.view();
    BlockBuckets<K>(store_.hash(), ways, keys, n, buckets);
    for (std::size_t i = 0; i < n; ++i) {
      for (unsigned w = 0; w < ways; ++w) {
        PrefetchBucketForWrite(view, buckets[i * ways + w]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const K key = keys[i];
      std::uint8_t r = 0;
      if (key != static_cast<K>(kEmptyKey)) {
        const auto key_w = static_cast<std::uint64_t>(key);
        for (unsigned w = 0; w < ways && r == 0; ++w) {
          const std::uint32_t b = buckets[i * ways + w];
          const BucketScan scan =
              mutation_kernel_->bucket_scan(view, b, key_w);
          if (scan.match_slot >= 0) {
            store_.SetVal(b, static_cast<unsigned>(scan.match_slot), vals[i]);
            r = 1;
          }
        }
        if (r == 0) {
          const unsigned stash_n = store_.stash_count();
          for (unsigned j = 0; j < stash_n; ++j) {
            if (store_.stash_at(j).key == key_w) {
              store_.StashSetVal(j, static_cast<std::uint64_t>(vals[i]));
              r = 1;
              break;
            }
          }
        }
      }
      if (batch.ok != nullptr) batch.ok[base + i] = r;
    }
  }
}

template <typename K, typename V>
bool CuckooTable<K, V>::UpdateValue(K key, V val) {
  if (key == static_cast<K>(kEmptyKey)) return false;
  const LayoutSpec& spec = store_.spec();
  for (unsigned way = 0; way < spec.ways; ++way) {
    const std::uint32_t b = BucketOf(way, key);
    for (unsigned s = 0; s < spec.slots; ++s) {
      if (KeyAt(b, s) == key) {
        // Single aligned word store: concurrent readers see old or new.
        store_.SetVal(b, s, val);
        return true;
      }
    }
  }
  const unsigned stash_n = store_.stash_count();
  for (unsigned i = 0; i < stash_n; ++i) {
    if (store_.stash_at(i).key == static_cast<std::uint64_t>(key)) {
      store_.StashSetVal(i, static_cast<std::uint64_t>(val));
      return true;
    }
  }
  return false;
}

template <typename K, typename V>
bool CuckooTable<K, V>::Erase(K key) {
  if (key == static_cast<K>(kEmptyKey)) return false;
  const LayoutSpec& spec = store_.spec();
  for (unsigned way = 0; way < spec.ways; ++way) {
    const std::uint32_t b = BucketOf(way, key);
    for (unsigned s = 0; s < spec.slots; ++s) {
      if (KeyAt(b, s) == key) {
        store_.SetSlot(b, s, static_cast<K>(kEmptyKey), V{});
        store_.AdjustSize(-1);
        return true;
      }
    }
  }
  const unsigned stash_n = store_.stash_count();
  for (unsigned i = 0; i < stash_n; ++i) {
    if (store_.stash_at(i).key == static_cast<std::uint64_t>(key)) {
      store_.StashRemoveAt(i);
      store_.AdjustSize(-1);
      return true;
    }
  }
  return false;
}

template class CuckooTable<std::uint16_t, std::uint32_t>;
template class CuckooTable<std::uint32_t, std::uint32_t>;
template class CuckooTable<std::uint64_t, std::uint64_t>;

}  // namespace simdht
