// Key-value backend interface: the part of the server Section VI swaps
// between the non-SIMD MemC3 design and the SIMD-aware designs.
//
// Thread model (matches the paper's benchmark): Set/Erase are serialized by
// the backend; MultiGet is safe from many threads concurrently with each
// other (and, for the MemC3 backend, concurrently with a writer thanks to
// its optimistic version counters). The evaluation preloads then measures a
// read-only Multi-Get phase.
#ifndef SIMDHT_KVS_BACKEND_H_
#define SIMDHT_KVS_BACKEND_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace simdht {

// Per-shard Multi-Get outcome counters (lifetime totals). `stash_hits`
// counts hits served by the shard's overflow stash rather than a bucket —
// a rising stash-hit rate is the early-warning signal that a shard is
// saturating. Values are relaxed-atomic snapshots: eventually consistent,
// meant for monitoring, never for control flow.
struct ShardProbeCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stash_hits = 0;
};

class KvBackend {
 public:
  virtual ~KvBackend() = default;

  virtual const char* name() const = 0;

  // Inserts or overwrites. False when the index or memory is exhausted
  // (after eviction attempts) or on an unrecoverable hash collision.
  virtual bool Set(std::string_view key, std::string_view val) = 0;

  // The batched write path: stores keys[i] -> vals[i] for every i, with
  // the same per-key semantics as calling Set in order (later duplicates
  // overwrite earlier ones). When `ok` is non-null it is resized to
  // keys.size() and filled with per-key 1/0 outcomes. Returns the number
  // of keys stored. The base implementation is the scalar loop; backends
  // override it to push the whole batch through the table's mutation
  // engine — block hashing, candidate prefetch, SIMD empty/dup scans —
  // under one writer-lock acquisition.
  virtual std::size_t MultiSet(const std::vector<std::string_view>& keys,
                               const std::vector<std::string_view>& vals,
                               std::vector<std::uint8_t>* ok);

  // Single-key lookup (convenience path over MultiGet).
  virtual bool Get(std::string_view key, std::string* val) = 0;

  // The Multi-Get hot path: looks up keys[0..n) and fills, per key:
  //   vals[i]    -> view into the stored value (valid until the next Set)
  //   found[i]   -> 1/0
  //   handles[i] -> item handle for post-processing (0 when not found)
  // Returns the number of keys found. All three out-vectors are resized.
  virtual std::size_t MultiGet(const std::vector<std::string_view>& keys,
                               std::vector<std::string_view>* vals,
                               std::vector<std::uint8_t>* found,
                               std::vector<std::uint64_t>* handles) = 0;

  virtual bool Erase(std::string_view key) = 0;

  virtual std::uint64_t size() const = 0;

  // One entry per index shard (empty when the backend doesn't track them).
  // Updated by MultiGet only — the measured read path — so the numbers map
  // directly onto what the serving metrics report.
  virtual std::vector<ShardProbeCounters> ShardProbeStats() const {
    return {};
  }

  // Post-processing metadata update (CLOCK reference bits) for the handles
  // a MultiGet returned — the paper's "LRU updates" step.
  void TouchBatch(const std::vector<std::uint64_t>& handles);
};

}  // namespace simdht

#endif  // SIMDHT_KVS_BACKEND_H_
