// Family-generic batched mutation engine: scan kernels + batch descriptor.
//
// The read path batches, prefetches and SIMD-scans; until this layer the
// write path walked one key at a time. A batched mutation hashes a chunk of
// keys as a block (hash/block_hash.h), issues write-hint prefetches for
// every candidate bucket, then SIMD-scans each bucket once for *both* a key
// match (duplicate → overwrite) and the first empty slot (direct insert) —
// only keys whose candidate buckets are full fall back to the scalar insert
// core (BFS path search / stash / rebuild). Batch results are bit-identical
// to the scalar loop: the fast path reproduces exactly the writes, stats
// and placement order the per-key path would have made (a direct insert is
// a BFS path of length one, and the BFS root scan is way-major slot-minor —
// the same order these scans report).
//
// Scan kernels come from a fixed built-in list: scalar twins plus SSE and
// AVX2 scans. The per-ISA scan TUs live beside the tables (mutation_simd.cc
// / mutation_avx2.cc, compiled with per-file ISA flags like src/simd's
// kernel TUs) because the layering runs simd → ht: tables cannot link the
// lookup-kernel registry, but every binary that links simdht_ht — with or
// without simdht_simd — must agree on batch results. Selection is gated on
// runtime CpuFeatures, and the scalar twins make every scan available
// everywhere.
#ifndef SIMDHT_HT_MUTATION_H_
#define SIMDHT_HT_MUTATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/compiler.h"
#include "common/cpu_features.h"
#include "ht/layout.h"

namespace simdht {

// One batched mutation request: n parallel (key, value) pairs plus a
// per-key outcome lane. ok[i] mirrors exactly what the scalar call for
// keys[i] would have returned (Insert: inserted-or-overwrote; Update:
// key was present). Aliasing keys within a batch is legal and resolves in
// batch order, like the scalar loop.
template <typename K, typename V>
struct MutationBatch {
  const K* keys = nullptr;
  const V* vals = nullptr;
  std::uint8_t* ok = nullptr;  // optional: null discards per-key outcomes
  std::size_t size = 0;

  static MutationBatch Of(const K* keys, const V* vals, std::uint8_t* ok,
                          std::size_t size) {
    return MutationBatch{keys, vals, ok, size};
  }
};

// Chunk width of the batched engines: keys are block-hashed and their
// buckets prefetched this many at a time — enough independent misses to
// fill the memory pipeline, small enough to stay in L1 while the chunk's
// per-key writes land.
inline constexpr std::size_t kMutationChunk = 64;

// Result of scanning one cuckoo bucket for a probe key: the first slot
// holding the key and the first empty slot, both in ascending slot order
// (-1 = none). One scan feeds both the duplicate-overwrite check and the
// direct-insert placement.
struct BucketScan {
  int match_slot = -1;
  int empty_slot = -1;
};

// Scans bucket `b` of a cuckoo-family view for `key` (passed widened; the
// kernel narrows to its registered key width).
using BucketScanFn = BucketScan (*)(const TableView& view, std::uint64_t b,
                                    std::uint64_t key);

// Result of scanning one Swiss 16-slot group's control bytes: candidate
// fingerprint matches (verify keys before trusting), EMPTY bytes, and all
// free bytes (EMPTY | TOMBSTONE). Bit i = slot i.
struct GroupScan {
  std::uint32_t match_mask = 0;
  std::uint32_t empty_mask = 0;
  std::uint32_t free_mask = 0;
};

// Scans the 16 control bytes at `ctrl` (a group base inside view.meta).
using GroupScanFn = GroupScan (*)(const std::uint8_t* ctrl, std::uint8_t h2);

// One registered mutation-scan kernel. Cuckoo kernels set bucket_scan and
// match on (key_bits, val_bits, bucket_layout); Swiss kernels set
// group_scan and are key-oblivious (the control lane is always one byte
// per slot). val_bits 0 matches any value width; any_layout ignores the
// bucket-layout field (the scalar twins locate keys through TableView).
struct MutationKernel {
  const char* name = "?";
  TableFamily family = TableFamily::kCuckoo;
  SimdLevel level = SimdLevel::kScalar;
  unsigned key_bits = 0;  // 0 = any
  unsigned val_bits = 0;  // 0 = any
  bool any_layout = true;
  BucketLayout bucket_layout = BucketLayout::kInterleaved;
  BucketScanFn bucket_scan = nullptr;
  GroupScanFn group_scan = nullptr;

  bool MatchesCuckoo(const LayoutSpec& spec) const {
    if (family != TableFamily::kCuckoo || bucket_scan == nullptr) return false;
    if (key_bits != 0 && key_bits != spec.key_bits) return false;
    if (val_bits != 0 && val_bits != spec.val_bits) return false;
    if (!any_layout && bucket_layout != spec.bucket_layout) return false;
    return true;
  }
};

// Process-wide mutation-scan registry. Built on first use from the
// built-in scalar/SSE/AVX2 scans.
class MutationRegistry {
 public:
  static const MutationRegistry& Get();

  const std::vector<MutationKernel>& all() const { return kernels_; }

  // Highest-ISA supported scan for a cuckoo-family spec (scalar twins make
  // this never null for valid specs) / for the Swiss control lane.
  const MutationKernel* ForCuckoo(const LayoutSpec& spec) const;
  const MutationKernel* ForSwiss() const;
  const MutationKernel* ByName(const std::string& name) const;

 private:
  MutationRegistry();
  std::vector<MutationKernel> kernels_;
};

// Write-hint prefetch of every cache line of bucket `b` — the mutation
// twin of simd/prefetch.h's read-hint PrefetchBucket (which lives in the
// simd layer; the write path needs one below it).
SIMDHT_ALWAYS_INLINE void PrefetchBucketForWrite(const TableView& view,
                                                 std::uint64_t b) {
  const std::uint8_t* p = view.bucket_ptr(b);
  const std::uint32_t stride = view.bucket_stride();
  for (std::uint32_t off = 0; off < stride; off += 64) {
    __builtin_prefetch(p + off, 1, 3);
  }
  __builtin_prefetch(p + stride - 1, 1, 3);
}

// Write-hint prefetch of a Swiss group's control bytes + key block.
SIMDHT_ALWAYS_INLINE void PrefetchGroupForWrite(const TableView& view,
                                                std::uint64_t group) {
  __builtin_prefetch(view.meta + group * kSwissGroupSlots, 1, 3);
  PrefetchBucketForWrite(view, group);
}

// Built-in scan appenders, hard-referenced from the registry constructor so
// static-archive linking can never drop them.
void AppendScalarMutationKernels(std::vector<MutationKernel>* out);
void AppendSseMutationKernels(std::vector<MutationKernel>* out);
void AppendAvx2MutationKernels(std::vector<MutationKernel>* out);

}  // namespace simdht

#endif  // SIMDHT_HT_MUTATION_H_
