// SimdHashTable<K, V>: the one-class public API.
//
// Wraps a table — (N, m) cuckoo/BCHT by default, or a Swiss control-byte
// table via Options::family — with an automatically selected SIMD lookup
// kernel (best viable design for the layout on this CPU, scalar fallback)
// so downstream users get the paper's fastest batched lookups without
// touching the registry or validation engine:
//
//   simdht::SimdHashTable<uint32_t, uint32_t> ht(
//       simdht::SimdHashTable<uint32_t, uint32_t>::Options{});
//   ht.Insert(k, v);
//   ht.BatchGet(keys, n, vals, found);   // vectorized
//
// Options are validated up front: an unsupported (ways, slots, layout,
// key/value width) combination throws std::invalid_argument naming the rule
// it broke — it never silently degrades. The table's writer policy follows
// from its storage: one shard is a single-writer CuckooTable, whose writes
// publish nothing; with Options::shards > 1 the storage becomes a
// ShardedTable of seqlocked shards (ConcurrentCuckooTable: writer lock,
// seqlock stripes and write epoch per shard). BatchGet then partitions each
// batch by shard and runs the same kernel per shard, and single-key writes
// become safe to race with readers.
#ifndef SIMDHT_SIMD_SIMD_HASH_TABLE_H_
#define SIMDHT_SIMD_SIMD_HASH_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/cpu_features.h"
#include "ht/cuckoo_table.h"
#include "ht/sharded_table.h"
#include "ht/swiss_table.h"
#include "simd/kernel.h"

namespace simdht {

template <typename K, typename V>
class SimdHashTable {
 public:
  // Routing hashes fold the shard index out of 32 bits of avalanche;
  // anything beyond this is a configuration typo, not a real deployment.
  static constexpr unsigned kMaxShards = 1u << 12;

  struct Options {
    // Which table family backs the storage. kCuckoo (default) honors ways/
    // slots/layout below; kSwiss uses the canonical Swiss layout (16-slot
    // groups, split storage, control-byte lane) and ignores them.
    TableFamily family = TableFamily::kCuckoo;
    // Scalar hash for bucket/group selection (and the Swiss H2 fingerprint).
    // kWyHash is Swiss-only: the vertical cuckoo kernels vectorize the
    // multiply-shift expression directly, so cuckoo layouts must keep it.
    HashKind hash_kind = HashKind::kMultiplyShift;
    // Defaults to the paper's best load-factor/performance combinations:
    // (2,4) BCHT for horizontal probing. Use ways=3, slots=1 for the
    // vertical-gather design. Ignored by family = kSwiss.
    unsigned ways = 2;
    unsigned slots = 4;
    std::uint64_t capacity = 1 << 20;  // entries (buckets derived)
    BucketLayout layout = sizeof(K) == sizeof(V) ? BucketLayout::kInterleaved
                                                 : BucketLayout::kSplit;
    std::uint64_t seed = 0;
    // 1 = one single-writer CuckooTable. >1 = that many independent
    // seqlocked shards; writes lock per shard and batched lookups partition
    // by shard.
    unsigned shards = 1;
    // Force a specific kernel by registry name; empty = auto-select the
    // widest viable design the CPU supports.
    std::string kernel_name;
    // When auto-selecting and no SIMD kernel exists for this layout on this
    // CPU: true (default) accepts the scalar twin, false makes the
    // constructor throw so "I asked for SIMD" failures are loud.
    bool allow_scalar_fallback = true;
  };

  // The LayoutSpec `options` describes (width fields from K/V).
  static LayoutSpec SpecOf(const Options& options) {
    if (options.family == TableFamily::kSwiss) {
      return LayoutSpec::Swiss(sizeof(K) * 8, sizeof(V) * 8);
    }
    LayoutSpec spec;
    spec.ways = options.ways;
    spec.slots = options.slots;
    spec.key_bits = sizeof(K) * 8;
    spec.val_bits = sizeof(V) * 8;
    spec.bucket_layout = options.layout;
    return spec;
  }

  // Throws std::invalid_argument on any unsupported combination, with the
  // violated rule spelled out. Called by the constructor; exposed so config
  // parsers can validate before building a multi-gigabyte table.
  static void Validate(const Options& options) {
    const LayoutSpec spec = SpecOf(options);
    std::string why;
    if (!spec.Validate(&why)) {
      throw std::invalid_argument("SimdHashTable: unsupported layout " +
                                  spec.ToString() + ": " + why);
    }
    if (options.capacity == 0) {
      throw std::invalid_argument("SimdHashTable: capacity must be > 0");
    }
    if (options.shards == 0) {
      throw std::invalid_argument("SimdHashTable: shards must be >= 1");
    }
    if (options.shards > kMaxShards) {
      throw std::invalid_argument(
          "SimdHashTable: shards=" + std::to_string(options.shards) +
          " exceeds the maximum of " + std::to_string(kMaxShards));
    }
    if (options.family == TableFamily::kCuckoo &&
        options.hash_kind != HashKind::kMultiplyShift) {
      throw std::invalid_argument(
          std::string("SimdHashTable: hash_kind=") +
          HashKindName(options.hash_kind) +
          " is only valid for family=Swiss; cuckoo layouts require "
          "multiply-shift (the vertical kernels vectorize it)");
    }
    if (options.family == TableFamily::kSwiss && options.shards > 1) {
      throw std::invalid_argument(
          "SimdHashTable: shards=" + std::to_string(options.shards) +
          " is only implemented for family=cuckoo; the Swiss family "
          "requires shards=1");
    }
  }

  explicit SimdHashTable(const Options& options) {
    Validate(options);
    if (options.family == TableFamily::kSwiss) {
      swiss_.emplace(options.capacity / kSwissGroupSlots + 1, options.seed,
                     options.hash_kind);
    } else {
      const std::uint64_t num_buckets = options.capacity / options.slots + 1;
      if (options.shards == 1) {
        table_.emplace(options.ways, options.slots, num_buckets,
                       options.layout, options.seed);
      } else {
        sharded_ = std::make_unique<ShardedTable<K, V>>(
            options.shards, options.ways, options.slots, num_buckets,
            options.layout, options.seed);
      }
    }
    SelectKernel(options.kernel_name, options.allow_scalar_fallback);
  }

  // --- single-key operations (scalar paths) ---
  bool Insert(K key, V val) {
    return table_ ? table_->Insert(key, val)
                  : swiss_ ? swiss_->Insert(key, val)
                           : sharded_->Insert(key, val);
  }
  bool Find(K key, V* val) const {
    return table_ ? table_->Find(key, val)
                  : swiss_ ? swiss_->Find(key, val)
                           : sharded_->Find(key, val);
  }
  bool UpdateValue(K key, V val) {
    return table_ ? table_->UpdateValue(key, val)
                  : swiss_ ? swiss_->UpdateValue(key, val)
                           : sharded_->UpdateValue(key, val);
  }
  bool Erase(K key) {
    return table_ ? table_->Erase(key)
                  : swiss_ ? swiss_->Erase(key) : sharded_->Erase(key);
  }

  // --- batched mutation (ht/mutation.h engine) ---
  // Inserts/overwrites keys[0..n) through the family-generic batched write
  // path: block hashing, prefetch, fused SIMD candidate/group scans, with
  // only conflicted keys falling into the scalar insert core. ok[i]
  // (optional, may be null) mirrors what Insert(keys[i], vals[i]) would
  // have returned; the resulting table state is bit-identical to that
  // per-key loop. Sharded tables partition the batch by shard.
  void BatchInsert(const K* keys, const V* vals, std::uint8_t* ok,
                   std::size_t n) {
    const auto batch = MutationBatch<K, V>::Of(keys, vals, ok, n);
    if (table_) {
      table_->BatchInsert(batch);
    } else if (swiss_) {
      swiss_->BatchInsert(batch);
    } else {
      sharded_->BatchInsert(batch);
    }
  }

  // Batched UpdateValue: ok[i] = key was present (value overwritten).
  void BatchUpdate(const K* keys, const V* vals, std::uint8_t* ok,
                   std::size_t n) {
    const auto batch = MutationBatch<K, V>::Of(keys, vals, ok, n);
    if (table_) {
      table_->BatchUpdate(batch);
    } else if (swiss_) {
      swiss_->BatchUpdate(batch);
    } else {
      sharded_->BatchUpdate(batch);
    }
  }

  // --- the batched, SIMD-accelerated lookup ---
  // Looks up keys[0..n); writes vals[i] (0 on miss) and found[i] (0/1).
  // Returns the number of keys found. The kernel prefetches
  // kProbePrefetchDistance keys ahead inside its own loop where it has one
  // (scalar cuckoo twin, horizontal kernels). Sharded tables partition the
  // batch by shard and validate each shard's write epoch around the kernel
  // call, so this is safe to race with Insert/Erase when shards > 1.
  std::uint64_t BatchGet(const K* keys, std::size_t n, V* vals,
                         std::uint8_t* found) const {
    if (table_ || swiss_) {
      const TableView view = table_ ? table_->view() : swiss_->view();
      return kernel_->Lookup(
          view, ProbeBatch::Of(keys, vals, found, n, kProbePrefetchDistance));
    }
    return sharded_->BatchLookup(
        [this](const TableView& view, const K* k, V* v, std::uint8_t* f,
               std::size_t m) {
          return kernel_->Lookup(
              view, ProbeBatch::Of(k, v, f, m, kProbePrefetchDistance));
        },
        keys, vals, found, n);
  }

  std::uint64_t size() const {
    return table_ ? table_->size()
                  : swiss_ ? swiss_->size() : sharded_->size();
  }
  std::uint64_t capacity() const {
    return table_ ? table_->capacity()
                  : swiss_ ? swiss_->capacity() : sharded_->capacity();
  }
  double load_factor() const {
    return table_ ? table_->load_factor()
                  : swiss_ ? swiss_->load_factor() : sharded_->load_factor();
  }
  const LayoutSpec& spec() const {
    return table_ ? table_->spec()
                  : swiss_ ? swiss_->spec() : sharded_->spec();
  }
  unsigned num_shards() const {
    return sharded_ ? sharded_->num_shards() : 1;
  }
  TableFamily family() const {
    return swiss_ ? TableFamily::kSwiss : TableFamily::kCuckoo;
  }

  // Which lookup algorithm BatchGet uses ("V-Hor/AVX-512/k32v32", ...).
  const std::string& kernel_name() const { return kernel_->name; }
  bool using_simd() const {
    return kernel_->approach != Approach::kScalar;
  }

  // Access to the underlying unsharded cuckoo table (snapshots, custom
  // kernels, view()). Throws std::logic_error when the storage is sharded
  // or Swiss — use sharded() / swiss_table().
  CuckooTable<K, V>& table() {
    if (!table_) {
      throw std::logic_error(
          "SimdHashTable: table() on a sharded or Swiss table");
    }
    return *table_;
  }
  const CuckooTable<K, V>& table() const {
    if (!table_) {
      throw std::logic_error(
          "SimdHashTable: table() on a sharded or Swiss table");
    }
    return *table_;
  }

  // The Swiss store (only when constructed with family = kSwiss).
  SwissTable<K, V>& swiss_table() {
    if (!swiss_) {
      throw std::logic_error("SimdHashTable: swiss_table() on a cuckoo table");
    }
    return *swiss_;
  }
  const SwissTable<K, V>& swiss_table() const {
    if (!swiss_) {
      throw std::logic_error("SimdHashTable: swiss_table() on a cuckoo table");
    }
    return *swiss_;
  }

  // The sharded store (only when constructed with shards > 1).
  ShardedTable<K, V>& sharded() {
    if (!sharded_) {
      throw std::logic_error("SimdHashTable: sharded() on a 1-shard table");
    }
    return *sharded_;
  }
  const ShardedTable<K, V>& sharded() const {
    if (!sharded_) {
      throw std::logic_error("SimdHashTable: sharded() on a 1-shard table");
    }
    return *sharded_;
  }

 private:
  void SelectKernel(const std::string& forced_name,
                    bool allow_scalar_fallback) {
    const KernelRegistry& registry = KernelRegistry::Get();
    const LayoutSpec& spec = this->spec();
    if (!forced_name.empty()) {
      const KernelInfo* forced = registry.ByName(forced_name);
      if (forced == nullptr) {
        throw std::invalid_argument("SimdHashTable: no kernel named '" +
                                    forced_name + "' is registered");
      }
      if (forced->family != spec.family) {
        throw std::invalid_argument(
            "SimdHashTable: kernel '" + forced_name + "' probes the " +
            TableFamilyName(forced->family) + " family but this table is " +
            TableFamilyName(spec.family) +
            " — pick a kernel from the matching family ('simdht kernels' "
            "lists them)");
      }
      if (!forced->Matches(spec)) {
        throw std::invalid_argument(
            "SimdHashTable: kernel '" + forced_name +
            "' does not match layout " + spec.ToString() +
            " (key/value widths or bucket layout differ)");
      }
      if (!GetCpuFeatures().Supports(forced->level)) {
        throw std::invalid_argument(
            "SimdHashTable: kernel '" + forced_name +
            "' needs an ISA tier this CPU does not support");
      }
      kernel_ = forced;
      return;
    }
    // Auto: widest supported design for the layout's natural approach.
    // Swiss kernels register as horizontal (one key replicated across the
    // control-byte vector), and the Swiss spec is bucketized, so the same
    // rule picks them up.
    const Approach approach =
        spec.bucketized() ? Approach::kHorizontal : Approach::kVertical;
    auto candidates = registry.Find(KernelQuery{spec, approach});
    kernel_ = nullptr;
    for (const KernelInfo* k : candidates) {
      if (kernel_ == nullptr || k->width_bits > kernel_->width_bits) {
        kernel_ = k;
      }
    }
    if (kernel_ == nullptr) {
      if (!allow_scalar_fallback) {
        throw std::invalid_argument(
            "SimdHashTable: no SIMD kernel for layout " + spec.ToString() +
            " on this CPU and scalar fallback is disabled");
      }
      kernel_ = registry.Scalar(spec);
    }
    if (kernel_ == nullptr) {
      throw std::runtime_error(
          "SimdHashTable: no lookup kernel for this layout");
    }
  }

  std::optional<CuckooTable<K, V>> table_;       // cuckoo, shards == 1
  std::optional<SwissTable<K, V>> swiss_;        // family == kSwiss
  std::unique_ptr<ShardedTable<K, V>> sharded_;  // cuckoo, shards > 1
  const KernelInfo* kernel_ = nullptr;
};

}  // namespace simdht

#endif  // SIMDHT_SIMD_SIMD_HASH_TABLE_H_
