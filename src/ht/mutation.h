// Family-generic batched mutation engine: scan kernels + batch descriptor.
//
// The read path batches, prefetches and SIMD-scans; this layer does the same
// for writes. The cuckoo batch writes (CuckooTable::BatchInsert and
// BatchUpdate) run the horizontal lookup kernels' per-key schedule: keys
// are block-hashed a kMutationChunk tile at a time (hash/block_hash.h) into
// a ring of two tiles, the loop prefetches key i +
// kCuckooWritePrefetchDistance right before scanning key i, and one kernel
// call scans *all* of key i's candidate buckets for both a key match
// (duplicate -> overwrite) and the empty slots (direct insert). The call
// returns one fused match mask and one empty mask (CuckooScan), so the
// engine takes the slot from ctz instead of branching on which way matched.
// Only keys whose candidate buckets are all full fall back to the scalar
// insert core (BFS path search / stash / rebuild). Batch results are
// bit-identical to the scalar loop: the fast path reproduces exactly the
// writes, stats and placement order the per-key path would have made (a
// direct insert is a BFS path of length one, and the BFS root scan is
// way-major slot-minor -- the bit order of the masks).
//
// Swiss batch writes block-hash and prefetch a whole chunk first, then scan
// each probed group's control bytes with the force-inlined ScanSwissGroup
// (ht/swiss_scan.h); they take nothing from the registry below.
//
// Scan kernels come from a fixed built-in list: one cuckoo scan per tier
// (scalar twin, SSE4.2, AVX2), each serving every valid cuckoo layout. The
// per-ISA scan TUs live beside the tables (mutation_simd.cc /
// mutation_avx2.cc, compiled with per-file ISA flags like src/simd's kernel
// TUs) because the layering runs simd -> ht: tables cannot link the
// lookup-kernel registry, but every binary that links simdht_ht -- with or
// without simdht_simd -- must agree on batch results. Selection is gated on
// runtime CpuFeatures, and the scalar twin makes a scan available
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

// Tile width of the batched engines: keys are block-hashed this many at a
// time. Swiss also prefetches a whole chunk's home groups at once; the
// cuckoo engines keep two tiles hashed in a ring and prefetch per key.
inline constexpr std::size_t kMutationChunk = 64;

// How many keys ahead of the scan the cuckoo engines prefetch. Under one
// tile, so the prefetched key's candidates are always hashed already (the
// next tile is hashed when the current one starts).
inline constexpr std::size_t kCuckooWritePrefetchDistance = 32;
static_assert(kCuckooWritePrefetchDistance <= kMutationChunk);

// Result of scanning every candidate bucket of one probe key. Bit w * m + s
// stands for slot s of candidates[w] (m = slots per bucket): way-major,
// slot-minor, the order the scalar insert walks. ctz(match) is therefore
// the copy the scalar duplicate pass finds and ctz(empty) the slot a BFS
// path of length one fills. When two ways share a bucket its slots show up
// under both ways. ways <= 4 and m <= 8 fit 32 bits.
struct CuckooScan {
  std::uint32_t match = 0;
  std::uint32_t empty = 0;
};

// Scans buckets candidates[0, view.spec.ways) of a cuckoo-family view for
// `key` (passed widened; the kernel narrows it to view.spec.key_bits).
// Kernels may read up to 32 bytes past a bucket's start: the arena's tail
// padding keeps that in bounds, and the masks ignore the extra lanes.
using CuckooScanFn = CuckooScan (*)(const TableView& view,
                                    const std::uint32_t* candidates,
                                    std::uint64_t key);

// A tier's cuckoo scan for one layout: returns the CuckooScanFn that serves
// views of the valid cuckoo `spec` (its ways, slots, key width and bucket
// layout), resolved once per table rather than decoded per key.
using CuckooScanForFn = CuckooScanFn (*)(const LayoutSpec& spec);

// One registered cuckoo mutation-scan kernel; it serves every valid cuckoo
// LayoutSpec.
struct MutationKernel {
  const char* name = "?";
  SimdLevel level = SimdLevel::kScalar;
  CuckooScanForFn cuckoo_scan_for = nullptr;
};

// Process-wide cuckoo mutation-scan registry. Built on first use from the
// built-in scalar/SSE/AVX2 scans.
class MutationRegistry {
 public:
  static const MutationRegistry& Get();

  const std::vector<MutationKernel>& all() const { return kernels_; }

  // Highest-ISA supported scan (the scalar twin makes this never null).
  const MutationKernel* ForCuckoo() const;
  const MutationKernel* ByName(const std::string& name) const;

 private:
  MutationRegistry();
  std::vector<MutationKernel> kernels_;
};

// Prefetch of every cache line of bucket `b` -- the write-path twin of the
// scalar read kernel's bucket prefetch (simd/scalar_kernels.cc; the write
// path needs one below the simd layer). The builtin asks for a write hint,
// but at the -msse4.2 baseline gcc emits prefetcht0 (PREFETCHW needs
// -mprfchw), so the line arrives shared in L1 like a read prefetch.
SIMDHT_ALWAYS_INLINE void PrefetchBucketForWrite(const TableView& view,
                                                 std::uint64_t b) {
  const std::uint8_t* p = view.bucket_ptr(b);
  const std::uint32_t stride = view.bucket_stride();
  for (std::uint32_t off = 0; off < stride; off += 64) {
    __builtin_prefetch(p + off, 1, 3);
  }
  __builtin_prefetch(p + stride - 1, 1, 3);
}

// Prefetch of a Swiss group's control bytes + key block.
SIMDHT_ALWAYS_INLINE void PrefetchGroupForWrite(const TableView& view,
                                                std::uint64_t group) {
  __builtin_prefetch(view.meta + group * kSwissGroupSlots, 1, 3);
  PrefetchBucketForWrite(view, group);
}

// Prefetches every cache line the `ways` buckets in `candidates` touch
// (into L1, as prefetcht0; see PrefetchBucketForWrite). Split buckets with
// 6- or 12-byte slots are not powers of two and may straddle a line
// boundary. Force-inlined: gcc infers a non-inlined body holding nothing
// but prefetches to be side-effect free and deletes the calls.
SIMDHT_ALWAYS_INLINE void PrefetchCandidatesForWrite(
    const std::uint8_t* data, std::size_t stride, unsigned ways,
    const std::uint32_t* candidates) {
  for (unsigned w = 0; w < ways; ++w) {
    const std::uint8_t* p = data + candidates[w] * stride;
    const std::uint8_t* line = p - reinterpret_cast<std::uintptr_t>(p) %
                                       kCacheLineBytes;
    for (; line < p + stride; line += kCacheLineBytes) {
      __builtin_prefetch(line, 1, 3);
    }
  }
}

// Built-in scan appenders, hard-referenced from the registry constructor so
// static-archive linking can never drop them.
void AppendScalarMutationKernels(std::vector<MutationKernel>* out);
void AppendSseMutationKernels(std::vector<MutationKernel>* out);
void AppendAvx2MutationKernels(std::vector<MutationKernel>* out);

}  // namespace simdht

#endif  // SIMDHT_HT_MUTATION_H_
