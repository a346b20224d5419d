// TableStore: the one storage layer under every table family.
//
// Every table family — CuckooTable under either writer policy, Memc3Table
// and SwissTable — sits on this one storage layer: bucket-arena
// allocation, (N, m) shape resolution, striped seqlock versions and
// TableView construction live here exactly once. The kernels are
// layout-generic (any kernel probes any TableView), so the table classes
// are policy wrappers: they decide *what* to write (insert/eviction
// discipline, and whether writes publish through the seqlock), TableStore
// decides *where bytes live* and how readers validate them.
//
// A store resolves a TableShape (validated layout + power-of-two bucket
// count + bucket stride), owns the aligned/hugepage bucket arena
// (common/aligned_buffer.h), the striped seqlock version counters and the
// global write epoch that optimistic readers validate against, and builds
// the TableView the SIMD kernels consume. Raw-shaped stores (Memc3's
// tag+handle buckets) skip the LayoutSpec and view but share everything
// else.
#ifndef SIMDHT_HT_TABLE_STORE_H_
#define SIMDHT_HT_TABLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/aligned_buffer.h"
#include "common/compiler.h"
#include "hash/hash_family.h"
#include "ht/layout.h"

namespace simdht {

// Resolved table geometry: the step every table constructor used to
// duplicate. `For` validates the LayoutSpec and rounds the bucket count to
// a power of two >= 2; `Raw` does the same rounding for a caller-defined
// bucket record (no LayoutSpec semantics, no TableView).
struct TableShape {
  LayoutSpec spec;                 // meaningful only when !raw
  std::uint64_t num_buckets = 0;   // power of two, >= 2
  unsigned log2_buckets = 0;
  std::uint32_t bucket_bytes = 0;  // arena stride
  bool raw = false;

  // Throws std::invalid_argument on an invalid spec.
  static TableShape For(const LayoutSpec& spec, std::uint64_t min_buckets);
  static TableShape Raw(std::uint64_t min_buckets,
                        std::uint32_t bucket_bytes);

  std::uint64_t total_bytes() const {
    return num_buckets * static_cast<std::uint64_t>(bucket_bytes);
  }
};

class TableStore {
 public:
  // Stripe count shared by every optimistic-concurrency table (MemC3 uses
  // 2048); versions are allocated per store, never per policy class.
  static constexpr unsigned kVersionStripes = 1 << 11;

  // `seed` randomizes the hash family (seed 0 = deterministic defaults);
  // `hash_kind` picks its scalar hash (wyhash is Swiss-family-only, see
  // hash_family.h). Layouts whose family declares a metadata lane get a
  // second arena of one control byte per slot, pre-filled with the lane's
  // empty sentinel and tailed by kMetaMirrorBytes of cyclic mirror.
  TableStore(const TableShape& shape, std::uint64_t seed,
             HashKind hash_kind = HashKind::kMultiplyShift);

  TableStore(TableStore&&) noexcept = default;
  TableStore& operator=(TableStore&&) noexcept = default;

  // --- shape / layout ---
  const TableShape& shape() const { return shape_; }
  const LayoutSpec& spec() const { return shape_.spec; }
  std::uint64_t num_buckets() const { return shape_.num_buckets; }
  unsigned log2_buckets() const { return shape_.log2_buckets; }
  std::uint32_t bucket_stride() const { return shape_.bucket_bytes; }
  std::uint64_t table_bytes() const { return shape_.total_bytes(); }

  // --- bucket arena ---
  std::uint8_t* data() { return arena_.data(); }
  const std::uint8_t* data() const { return arena_.data(); }
  template <typename T>
  T* as() { return arena_.as<T>(); }
  template <typename T>
  const T* as() const { return arena_.as<T>(); }

  // --- hash family ---
  const HashFamily& hash() const { return hash_; }
  template <typename K>
  std::uint32_t Bucket(unsigned way, K key) const {
    return hash_.Bucket<K>(way, key);
  }

  // The seed the current hash family was derived from. Starts at the
  // constructor seed; a rebuild recovery (CuckooTable::TryRebuild) moves it.
  // Snapshots persist this so seed-vs-multiplier validation keeps working
  // after a rebuild.
  std::uint64_t seed() const { return seed_; }

  // Re-derives the hash family from `seed`, keeping the hash kind (rebuild
  // recovery / snapshot load). Writer-side only. SIMDHT_NO_TSAN: a
  // concurrent reader may load multipliers mid-store, compute a
  // wrong-but-in-range bucket, and retry via the stripe/epoch validation —
  // the same protocol as slot stores.
  SIMDHT_NO_TSAN void Reseed(std::uint64_t seed) {
    hash_ = HashFamily::Make(shape_.log2_buckets, seed, hash_.kind);
    seed_ = seed;
  }

  // --- occupancy (maintained by the policy layer) ---
  std::uint64_t size() const { return size_; }
  void AdjustSize(std::int64_t delta) {
    size_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(size_) +
                                       delta);
  }

  // Adopts deserialized state (ht/table_io.h) after the caller filled
  // data() with snapshot bytes.
  void Restore(const HashFamily& hash, std::uint64_t size,
               std::uint64_t seed) {
    hash_ = hash;
    size_ = size;
    seed_ = seed;
  }

  // Overwrites the whole arena from `src` (shape-identical staging table).
  // The rebuild publication step: caller brackets this with EpochEnterWrite
  // + BumpAllOdd so no reader validates against half-copied bytes.
  // SIMDHT_NO_TSAN for the same reason as SetSlot.
  SIMDHT_NO_TSAN void AdoptArena(const std::uint8_t* src) {
    std::memcpy(arena_.data(), src, shape_.total_bytes());
  }
  void SetSize(std::uint64_t n) { size_ = n; }

  // --- typed slot addressing (LayoutSpec-shaped stores only) ---
  // Key/value addresses for (bucket, slot) under either bucket layout.
  std::uint8_t* key_addr(std::uint64_t b, unsigned s) {
    const LayoutSpec& spec = shape_.spec;
    std::uint8_t* base = arena_.data() + b * shape_.bucket_bytes;
    if (spec.bucket_layout == BucketLayout::kInterleaved) {
      return base + static_cast<std::size_t>(s) * spec.slot_bytes();
    }
    return base + static_cast<std::size_t>(s) * spec.key_bytes();
  }
  const std::uint8_t* key_addr(std::uint64_t b, unsigned s) const {
    return const_cast<TableStore*>(this)->key_addr(b, s);
  }
  std::uint8_t* val_addr(std::uint64_t b, unsigned s) {
    const LayoutSpec& spec = shape_.spec;
    if (spec.bucket_layout == BucketLayout::kInterleaved) {
      return key_addr(b, s) + spec.key_bytes();
    }
    std::uint8_t* base = arena_.data() + b * shape_.bucket_bytes;
    return base + static_cast<std::size_t>(spec.slots) * spec.key_bytes() +
           static_cast<std::size_t>(s) * spec.val_bytes();
  }
  const std::uint8_t* val_addr(std::uint64_t b, unsigned s) const {
    return const_cast<TableStore*>(this)->val_addr(b, s);
  }

  // Slot accesses carry SIMDHT_NO_TSAN: optimistic readers race these
  // stores by design and retry via the stripe versions / write epoch below,
  // a protocol TSan cannot see through.
  template <typename K>
  SIMDHT_NO_TSAN K KeyAt(std::uint64_t b, unsigned s) const {
    K k;
    std::memcpy(&k, key_addr(b, s), sizeof(K));
    return k;
  }
  template <typename V>
  SIMDHT_NO_TSAN V ValAt(std::uint64_t b, unsigned s) const {
    V v;
    std::memcpy(&v, val_addr(b, s), sizeof(V));
    return v;
  }
  template <typename K, typename V>
  SIMDHT_NO_TSAN void SetSlot(std::uint64_t b, unsigned s, K key, V val) {
    std::memcpy(key_addr(b, s), &key, sizeof(K));
    std::memcpy(val_addr(b, s), &val, sizeof(V));
  }
  // In-place value overwrite: a single aligned word store, safe against
  // concurrent readers (they observe old or new).
  template <typename V>
  SIMDHT_NO_TSAN void SetVal(std::uint64_t b, unsigned s, V val) {
    std::memcpy(val_addr(b, s), &val, sizeof(V));
  }

  // --- metadata lane (families with MetaLaneSpec::present(), i.e. Swiss) ---
  // One control byte per slot (slot = bucket * spec.slots + s) plus a
  // kMetaMirrorBytes cyclic mirror of the lane start, so wide vector loads
  // at any group offset stay in-bounds. Control mutators carry
  // SIMDHT_NO_TSAN like the slot stores: optimistic readers race them and
  // retry via the stripe/epoch machinery.
  bool has_meta() const { return meta_.data() != nullptr; }
  std::uint64_t num_slots() const {
    return shape_.num_buckets * (shape_.raw ? 0 : shape_.spec.slots);
  }
  std::uint64_t meta_bytes() const { return num_slots() + kMetaMirrorBytes; }
  const std::uint8_t* meta_data() const { return meta_.data(); }
  SIMDHT_NO_TSAN std::uint8_t CtrlAt(std::uint64_t slot) const {
    return meta_.data()[slot];
  }
  // Stores a control byte and keeps the mirror tail coherent. For lanes
  // shorter than the mirror the tail repeats the lane cyclically, so the
  // stride loop writes every copy.
  SIMDHT_NO_TSAN void SetCtrl(std::uint64_t slot, std::uint8_t ctrl) {
    std::uint8_t* lane = meta_.data();
    lane[slot] = ctrl;
    const std::uint64_t slots = num_slots();
    for (std::uint64_t mirror = slot + slots; mirror < slots + kMetaMirrorBytes;
         mirror += slots) {
      lane[mirror] = ctrl;
    }
  }
  // Adopts `num_slots()` snapshot control bytes and rebuilds the mirror
  // (table_io restore; bracketed by the caller like AdoptArena).
  SIMDHT_NO_TSAN void AdoptMeta(const std::uint8_t* src) {
    std::memcpy(meta_.data(), src, num_slots());
    RebuildMetaMirror();
  }
  // Bulk control-byte writes (the Swiss tombstone purge) go through this
  // pointer, without keeping the mirror coherent; RebuildMetaMirror() must
  // follow before any reader or SetCtrl sees the lane.
  std::uint8_t* mutable_meta_data() { return meta_.data(); }
  SIMDHT_NO_TSAN void RebuildMetaMirror() {
    std::uint8_t* lane = meta_.data();
    const std::uint64_t slots = num_slots();
    for (std::uint64_t i = 0; i < kMetaMirrorBytes; ++i) {
      lane[slots + i] = lane[i % slots];
    }
  }

  // Read-only view for the lookup kernels (LayoutSpec-shaped stores only).
  TableView view() const;

  // --- optimistic-read machinery ---
  // Striped seqlock versions: writers bump the stripe of every bucket they
  // mutate to odd before the write and back to even after; readers snapshot
  // before/after probing and retry on change.
  std::atomic<std::uint64_t>& StripeFor(std::uint64_t bucket) const {
    return versions_[bucket & (kVersionStripes - 1)];
  }
  void BumpOdd(std::uint64_t bucket) {
    StripeFor(bucket).fetch_add(1, std::memory_order_acq_rel);
  }
  void BumpEven(std::uint64_t bucket) {
    StripeFor(bucket).fetch_add(1, std::memory_order_release);
  }

  // Every stripe to odd / back to even: brackets whole-arena mutations
  // (rebuild publication) the per-bucket bumps cannot cover.
  void BumpAllOdd() {
    for (unsigned i = 0; i < kVersionStripes; ++i) {
      versions_[i].fetch_add(1, std::memory_order_acq_rel);
    }
  }
  void BumpAllEven() {
    for (unsigned i = 0; i < kVersionStripes; ++i) {
      versions_[i].fetch_add(1, std::memory_order_release);
    }
  }

  // Global write epoch for batched lookups: odd while a structural write
  // (relocation, erase) is in flight; a batch that observed the same even
  // value before and after a kernel invocation is valid.
  std::uint64_t EpochBegin() const {
    return epoch().load(std::memory_order_acquire);
  }
  bool EpochValidate(std::uint64_t e0) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return epoch().load(std::memory_order_acquire) == e0;
  }
  void EpochEnterWrite() { epoch().fetch_add(1, std::memory_order_acq_rel); }
  void EpochExitWrite() { epoch().fetch_add(1, std::memory_order_release); }

  // --- overflow stash ---
  // Fixed-size stash the policy layer spills to when no eviction path
  // exists. Entries are widened to 64-bit (see StashEntry). The count is
  // published with release semantics so an append is reader-safe without
  // any version bump; in-place mutation (swap-remove) needs the seqlock
  // below. The mutators carry SIMDHT_NO_TSAN like the slot stores: readers
  // race them by design and retry via StashVersion / the write epoch.
  unsigned stash_capacity() const { return stash_capacity_; }
  void set_stash_capacity(unsigned cap) {
    stash_capacity_ = cap < kMaxStashEntries ? cap : kMaxStashEntries;
  }
  unsigned stash_count() const {
    return static_cast<unsigned>(
        stash_count_slot().load(std::memory_order_acquire));
  }
  SIMDHT_NO_TSAN StashEntry stash_at(unsigned i) const { return stash_[i]; }
  SIMDHT_NO_TSAN bool StashAppend(std::uint64_t key, std::uint64_t val) {
    const unsigned n = stash_count();
    if (n >= stash_capacity_) return false;
    stash_[n].val = val;
    stash_[n].key = key;
    stash_count_slot().store(n + 1, std::memory_order_release);
    return true;
  }
  // Single aligned word store: readers observe old or new.
  SIMDHT_NO_TSAN void StashSetVal(unsigned i, std::uint64_t val) {
    stash_[i].val = val;
  }
  // Swap-remove. Mutates entry `i` in place — callers with concurrent
  // readers bracket this with StashVersion odd/even and the write epoch.
  SIMDHT_NO_TSAN void StashRemoveAt(unsigned i) {
    const unsigned n = stash_count();
    stash_[i] = stash_[n - 1];
    stash_count_slot().store(n - 1, std::memory_order_release);
  }
  void StashClear() {
    stash_count_slot().store(0, std::memory_order_release);
  }
  // Seqlock guarding in-place stash mutation, validated by optimistic
  // readers alongside the bucket stripes.
  std::atomic<std::uint64_t>& StashVersion() const {
    return versions_[kVersionStripes + 1];
  }

 private:
  // The epoch, the stash seqlock and the stash count share the version
  // allocation (slots kVersionStripes .. +2) so the store stays movable —
  // a bare std::atomic member would delete the move operations CuckooTable
  // and table_io depend on.
  std::atomic<std::uint64_t>& epoch() const {
    return versions_[kVersionStripes];
  }
  std::atomic<std::uint64_t>& stash_count_slot() const {
    return versions_[kVersionStripes + 2];
  }

  TableShape shape_;
  HashFamily hash_;
  AlignedBuffer arena_;
  AlignedBuffer meta_;  // control-byte lane; unallocated for cuckoo shapes
  std::uint64_t size_ = 0;
  std::uint64_t seed_ = 0;
  StashEntry stash_[kMaxStashEntries];
  unsigned stash_capacity_ = kDefaultStashCapacity;
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> versions_;
};

}  // namespace simdht

#endif  // SIMDHT_HT_TABLE_STORE_H_
