// ShardedTable<K, V>: P independent seqlocked cuckoo shards behind one
// table interface — the partitioned storage layer a serving-grade KVS needs
// (Cuckoo++; "Scalable Hash Table for NUMA Systems").
//
// Each shard is a ConcurrentCuckooTable — the SeqlockWriters instantiation
// of CuckooTable — over its own TableStore (own arena, own hash-family
// seed, own writer lock, own seqlock stripes and write epoch), so
// structural writes in one shard never invalidate batched readers in
// another. Keys route to shards through one Mix64 avalanche
// (ShardRouterHash) — the same randomization the KVS consistent-hash ring
// applies to its server points — folded into [0, P) with a multiply-shift
// (no modulo, any P, not just powers of two). The router hash is
// independent of the in-shard multiply-shift bucket hash, so sharding does
// not skew per-shard bucket distribution.
//
// Batched lookups partition the probe stream by shard (one counting-sort
// pass), run the caller-supplied lookup — typically a SIMD kernel via
// KernelInfo::Lookup — per shard against that shard's TableView, then
// scatter results back into probe order. The kernels stay shard-oblivious:
// each invocation sees one plain TableView and a contiguous slice of keys.
#ifndef SIMDHT_HT_SHARDED_TABLE_H_
#define SIMDHT_HT_SHARDED_TABLE_H_

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ht/cuckoo_table.h"

namespace simdht {

// The shard-router randomization: one full-avalanche Mix64. Shared with the
// KVS consistent-hash ring (src/kvs/consistent_hash.cc), so in-process
// shards and cross-server partitions agree on how key material is
// scrambled before placement.
SIMDHT_ALWAYS_INLINE std::uint64_t ShardRouterHash(std::uint64_t x) {
  return Mix64(x);
}

// Folds a router hash into [0, shards): multiply-shift "fastrange" on the
// high 32 bits, uniform for any shard count.
SIMDHT_ALWAYS_INLINE std::uint32_t ShardIndexOf(std::uint64_t router_hash,
                                                unsigned shards) {
  return static_cast<std::uint32_t>(((router_hash >> 32) * shards) >> 32);
}

// Derives shard `shard`'s hash-family seed from the table-level seed.
// Shard 0 keeps the caller's seed verbatim — a 1-shard table is
// hash-identical to an unsharded table built with the same seed — and every
// other shard mixes in the shard index so it probes with independent
// multipliers.
inline std::uint64_t ShardSeedFor(std::uint64_t seed, unsigned shard) {
  return shard == 0
             ? seed
             : ShardRouterHash(seed + 0x9E3779B97F4A7C15ULL * (shard + 1));
}

template <typename K, typename V>
class ShardedTable {
 public:
  // `num_buckets_total` is split evenly across shards (each shard rounds to
  // a power of two >= 2). Shard 0 uses `seed` verbatim — so a 1-shard table
  // is hash-identical to an unsharded table built with the same seed — and
  // every other shard derives an independent seed from it.
  ShardedTable(unsigned shards, unsigned ways, unsigned slots,
               std::uint64_t num_buckets_total, BucketLayout layout,
               std::uint64_t seed = 0);

  // Adopts deserialized per-shard tables (ht/table_io.h), moving each
  // into a seqlocked shard. `shard_seeds[i]` is the seed shard i was
  // recorded with; throws std::invalid_argument when the counts differ or
  // a table's store carries a different seed.
  ShardedTable(std::vector<CuckooTable<K, V>>&& shard_tables,
               const std::vector<std::uint64_t>& shard_seeds);

  static std::uint32_t ShardOf(K key, unsigned shards) {
    return ShardIndexOf(ShardRouterHash(static_cast<std::uint64_t>(key)),
                        shards);
  }
  static std::uint64_t SeedForShard(std::uint64_t seed, unsigned shard) {
    return ShardSeedFor(seed, shard);
  }

  // --- single-key operations (routed, thread-safe per shard) ---
  bool Insert(K key, V val) { return shard_for(key).Insert(key, val); }
  bool Find(K key, V* val) const { return shard_for(key).Find(key, val); }
  bool UpdateValue(K key, V val) {
    return shard_for(key).UpdateValue(key, val);
  }
  bool Erase(K key) { return shard_for(key).Erase(key); }

  // --- batched lookup ---
  // Partitions keys[0..n) by shard, runs `lookup` (any callable with the
  // raw (view, keys, vals, found, n) shape) per shard through that shard's
  // epoch-validated BatchLookup, and scatters results back into probe
  // order. With one shard this is a zero-copy pass-through, so results are
  // bit-identical to the unsharded path.
  template <typename LookupCallable>
  std::uint64_t BatchLookup(LookupCallable&& lookup, const K* keys, V* vals,
                            std::uint8_t* found, std::size_t n) const {
    const auto shards = static_cast<unsigned>(shards_.size());
    if (shards == 1) {
      return shards_[0]->BatchLookup(lookup, keys, vals, found, n);
    }

    // Counting sort by shard: one routing pass, one scatter, then a
    // contiguous per-shard slice for the kernel.
    std::vector<std::uint32_t> shard_of(n);
    std::vector<std::size_t> offsets(shards + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      shard_of[i] = ShardOf(keys[i], shards);
      ++offsets[shard_of[i] + 1];
    }
    for (unsigned s = 0; s < shards; ++s) offsets[s + 1] += offsets[s];

    std::vector<K> keys_by_shard(n);
    std::vector<std::size_t> perm(n);  // position in shard order -> probe i
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = cursor[shard_of[i]]++;
      keys_by_shard[pos] = keys[i];
      perm[pos] = i;
    }

    std::vector<V> vals_by_shard(n);
    std::vector<std::uint8_t> found_by_shard(n);
    std::uint64_t hits = 0;
    for (unsigned s = 0; s < shards; ++s) {
      const std::size_t off = offsets[s];
      const std::size_t len = offsets[s + 1] - off;
      if (len == 0) continue;
      hits += shards_[s]->BatchLookup(lookup, keys_by_shard.data() + off,
                                      vals_by_shard.data() + off,
                                      found_by_shard.data() + off, len);
    }

    for (std::size_t pos = 0; pos < n; ++pos) {
      vals[perm[pos]] = vals_by_shard[pos];
      found[perm[pos]] = found_by_shard[pos];
    }
    return hits;
  }

  // --- batched mutation ---
  // Partitions the batch by shard (same counting sort as BatchLookup, which
  // is stable within a shard — per-shard key order is batch order, so each
  // shard's outcome is bit-identical to routing the keys one at a time),
  // then runs each shard's batched engine over its contiguous slice. With
  // one shard this is a zero-copy pass-through.
  void BatchInsert(const MutationBatch<K, V>& batch) {
    BatchMutate(batch, /*insert=*/true);
  }
  void BatchUpdate(const MutationBatch<K, V>& batch) {
    BatchMutate(batch, /*insert=*/false);
  }

  // --- aggregates ---
  std::uint64_t size() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->size();
    return total;
  }
  std::uint64_t capacity() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->capacity();
    return total;
  }
  double load_factor() const {
    const std::uint64_t cap = capacity();
    return cap ? static_cast<double>(size()) / static_cast<double>(cap) : 0.0;
  }
  std::uint64_t table_bytes() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->table_bytes();
    return total;
  }

  unsigned num_shards() const {
    return static_cast<unsigned>(shards_.size());
  }
  const LayoutSpec& spec() const { return shards_[0]->spec(); }
  ConcurrentCuckooTable<K, V>& shard(unsigned i) { return *shards_[i]; }
  const ConcurrentCuckooTable<K, V>& shard(unsigned i) const {
    return *shards_[i];
  }
  // The seed shard `i`'s hash family is *currently* derived from, read from
  // the live store: a rebuild recovery reseeds a shard in place, and
  // snapshots validate seed against stored multipliers, so a stale answer
  // would poison them.
  std::uint64_t shard_seed(unsigned i) const {
    return shards_[i]->store().seed();
  }

  // Per-shard insertion counters, one entry per shard — the write-path
  // twin of KvBackend::ShardProbeStats (reports surface both the aggregate
  // and the per-shard skew).
  std::vector<InsertStats> ShardInsertStats() const {
    std::vector<InsertStats> out;
    out.reserve(shards_.size());
    for (const auto& s : shards_) out.push_back(s->insert_stats());
    return out;
  }

  // Aggregated insertion counters across shards.
  InsertStats insert_stats() const {
    InsertStats total;
    for (const auto& s : shards_) {
      const InsertStats& st = s->insert_stats();
      total.direct_inserts += st.direct_inserts;
      total.path_inserts += st.path_inserts;
      total.path_moves += st.path_moves;
      total.stash_inserts += st.stash_inserts;
      total.rebuilds += st.rebuilds;
      total.failed_inserts += st.failed_inserts;
    }
    return total;
  }

 private:
  void BatchMutate(const MutationBatch<K, V>& batch, bool insert) {
    const auto shards = static_cast<unsigned>(shards_.size());
    if (shards == 1) {
      if (insert) {
        shards_[0]->BatchInsert(batch);
      } else {
        shards_[0]->BatchUpdate(batch);
      }
      return;
    }

    const std::size_t n = batch.size;
    std::vector<std::uint32_t> shard_of(n);
    std::vector<std::size_t> offsets(shards + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      shard_of[i] = ShardOf(batch.keys[i], shards);
      ++offsets[shard_of[i] + 1];
    }
    for (unsigned s = 0; s < shards; ++s) offsets[s + 1] += offsets[s];

    std::vector<K> keys_by_shard(n);
    std::vector<V> vals_by_shard(n);
    std::vector<std::size_t> perm(n);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = cursor[shard_of[i]]++;
      keys_by_shard[pos] = batch.keys[i];
      vals_by_shard[pos] = batch.vals[i];
      perm[pos] = i;
    }

    std::vector<std::uint8_t> ok_by_shard(n);
    for (unsigned s = 0; s < shards; ++s) {
      const std::size_t off = offsets[s];
      const std::size_t len = offsets[s + 1] - off;
      if (len == 0) continue;
      const auto slice = MutationBatch<K, V>::Of(
          keys_by_shard.data() + off, vals_by_shard.data() + off,
          ok_by_shard.data() + off, len);
      if (insert) {
        shards_[s]->BatchInsert(slice);
      } else {
        shards_[s]->BatchUpdate(slice);
      }
    }
    if (batch.ok != nullptr) {
      for (std::size_t pos = 0; pos < n; ++pos) {
        batch.ok[perm[pos]] = ok_by_shard[pos];
      }
    }
  }

  ConcurrentCuckooTable<K, V>& shard_for(K key) {
    return *shards_[ShardOf(key, num_shards())];
  }
  const ConcurrentCuckooTable<K, V>& shard_for(K key) const {
    return *shards_[ShardOf(key, num_shards())];
  }

  // unique_ptr because a shard owns a writer mutex (not movable).
  std::vector<std::unique_ptr<ConcurrentCuckooTable<K, V>>> shards_;
};

using ShardedTable32 = ShardedTable<std::uint32_t, std::uint32_t>;
using ShardedTable64 = ShardedTable<std::uint64_t, std::uint64_t>;

extern template class ShardedTable<std::uint16_t, std::uint32_t>;
extern template class ShardedTable<std::uint32_t, std::uint32_t>;
extern template class ShardedTable<std::uint64_t, std::uint64_t>;

}  // namespace simdht

#endif  // SIMDHT_HT_SHARDED_TABLE_H_
