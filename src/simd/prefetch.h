// Shared software-prefetch primitives.
//
// Batched lookups know the whole probe stream up front, so the candidate
// buckets of upcoming keys can be pulled into cache while the current keys
// are being compared — that overlap is what hides the random-access
// latency dominating out-of-cache tables. The pipelined engine (pipeline.h)
// drives these primitives a configurable group of keys ahead of the scalar,
// vertical and Swiss kernels; the horizontal kernels prefetch inside their
// own compare loop from block-hashed candidates (horizontal_impl.h).
#ifndef SIMDHT_SIMD_PREFETCH_H_
#define SIMDHT_SIMD_PREFETCH_H_

#include <cstddef>

#include "ht/layout.h"

namespace simdht {

// Prefetches every cache line of bucket `bucket` into L2.
SIMDHT_ALWAYS_INLINE void PrefetchBucket(const TableView& view,
                                         std::uint64_t bucket) {
  const std::uint8_t* ptr = view.bucket_ptr(bucket);
  const unsigned bytes = view.spec.bucket_bytes();
  for (unsigned off = 0; off < bytes; off += kCacheLineBytes) {
    __builtin_prefetch(ptr + off, 0, 1);
  }
}

// Prefetches all N candidate buckets of `key` into L2. For families with a
// control-byte lane (view.meta != null, ways == 1) the home group's lane
// window is prefetched too — the Swiss probe touches the lane before any
// key slot, so its line is the first miss to hide.
template <typename K>
SIMDHT_ALWAYS_INLINE void PrefetchCandidateBuckets(const TableView& view,
                                                   K key) {
  for (unsigned w = 0; w < view.spec.ways; ++w) {
    const std::uint64_t b = view.hash.template Bucket<K>(w, key);
    PrefetchBucket(view, b);
    if (view.meta != nullptr) {
      __builtin_prefetch(view.meta + b * view.spec.slots, 0, 1);
    }
  }
}

}  // namespace simdht

#endif  // SIMDHT_SIMD_PREFETCH_H_
