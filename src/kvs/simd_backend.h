// SIMD-aware backend: 32-bit hash-key cuckoo table + shared pointer array.
//
// Section VI-B's integrated design: the hash table stores a 32-bit hash of
// the Memcached key and a 32-bit payload that indexes a shared array of
// 64-bit item pointers (SIMD gathers cannot exploit 64-bit payloads without
// halving parallelism). Multi-Get batches run through a registered SIMD
// lookup kernel; each hit is then verified against the full key string.
//
// Two configurations reproduce the paper's choices:
//   * Bucket-Cuckoo-Hor(AVX2): (2,4) BCHT + horizontal 256-bit kernel
//   * Cuckoo-Ver(AVX-512):     3-way cuckoo + vertical 512-bit kernel
#ifndef SIMDHT_KVS_SIMD_BACKEND_H_
#define SIMDHT_KVS_SIMD_BACKEND_H_

#include <atomic>
#include <memory>
#include <mutex>

#include "ht/sharded_table.h"
#include "kvs/backend.h"
#include "kvs/clock_lru.h"
#include "kvs/slab.h"
#include "simd/kernel.h"

namespace simdht {

class SimdBackend : public KvBackend {
 public:
  struct Config {
    unsigned ways = 2;
    unsigned slots = 4;
    // Index-table shards (ht/sharded_table.h). 1 = the single-table layout
    // the paper measures; >1 partitions the index so structural writes in
    // one shard never force a batched reader in another to retry.
    unsigned shards = 1;
    // The lookup kernel; Scalar twin is used when approach == kScalar.
    Approach approach = Approach::kHorizontal;
    unsigned width_bits = 256;
    std::string display_name;  // e.g. "Bucket-Cuckoo-Hor(AVX-256)"
  };

  // Paper configurations.
  static Config BucketCuckooHorAvx2();
  static Config CuckooVerAvx512();
  // Scalar twin over the same (2,4) layout, for ablations.
  static Config ScalarBucketCuckoo();

  SimdBackend(const Config& config, std::uint64_t ht_entries,
              std::size_t memory_limit);

  const char* name() const override { return name_.c_str(); }
  bool Set(std::string_view key, std::string_view val) override;
  // Batched Set: one lock acquisition for the whole batch; fresh unique
  // keys are block-hashed, probed for existence through the read kernel,
  // and index-inserted via the table's batched mutation engine. Existing
  // keys and intra-chunk duplicates fall back to the scalar per-key path
  // (which re-probes, preserving Set-in-order semantics).
  std::size_t MultiSet(const std::vector<std::string_view>& keys,
                       const std::vector<std::string_view>& vals,
                       std::vector<std::uint8_t>* ok) override;
  bool Get(std::string_view key, std::string* val) override;
  std::size_t MultiGet(const std::vector<std::string_view>& keys,
                       std::vector<std::string_view>* vals,
                       std::vector<std::uint8_t>* found,
                       std::vector<std::uint64_t>* handles) override;
  bool Erase(std::string_view key) override;
  std::uint64_t size() const override { return table_->size(); }
  std::vector<ShardProbeCounters> ShardProbeStats() const override;

  // Distinct full keys that mapped to the same 32-bit hash key and were
  // therefore rejected (expected ~ n^2 / 2^33; tracked for transparency).
  std::uint64_t hash_collisions() const { return hash_collisions_; }
  const KernelInfo& kernel() const { return *kernel_; }

 private:
  // 32-bit hash key derived from the full key (never the empty sentinel).
  static std::uint32_t HashKey32(std::string_view key, std::uint64_t h64);
  // Set body; caller holds write_mu_.
  bool SetLocked(std::string_view key, std::string_view val);
  bool EvictOne();

  std::string name_;
  std::unique_ptr<ShardedTable32> table_;
  const KernelInfo* kernel_ = nullptr;
  SlabAllocator slab_;
  ClockLru lru_;
  // payload -> item handle; index 0 is reserved so payload 0 stays invalid.
  std::vector<std::uint64_t> pointer_array_;
  std::vector<std::uint32_t> free_indices_;
  std::mutex write_mu_;
  std::uint64_t hash_collisions_ = 0;
  // Per-shard MultiGet outcomes, one cell per ShardProbeCounters field.
  // Written with per-batch relaxed adds (MultiGet runs concurrently from
  // many threads), read unsynchronized by ShardProbeStats.
  std::vector<std::atomic<std::uint64_t>> shard_hits_;
  std::vector<std::atomic<std::uint64_t>> shard_misses_;
  std::vector<std::atomic<std::uint64_t>> shard_stash_hits_;
};

}  // namespace simdht

#endif  // SIMDHT_KVS_SIMD_BACKEND_H_
