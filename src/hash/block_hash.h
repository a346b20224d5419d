// Block (vector-friendly) hashing for batched mutation engines.
//
// The batched write path hashes a whole chunk of keys before touching the
// table: candidate buckets for every way of every key in one pass, H2
// fingerprints for Swiss chunks likewise. Each helper is a tight loop over
// HashFamily's scalar expressions — multiply-shift is one 32/64-bit multiply
// plus a shift per (way, key), which the compiler auto-vectorizes into the
// same mullo+srli sequence the vertical lookup kernels hand-code — so block
// hashing needs no per-ISA source. wyhash (Swiss-only) stays scalar per key,
// exactly like the lookup side.
//
// Layout contract: outputs are key-major. BlockBuckets writes
// out[i * ways + w] = Bucket(w, keys[i]) so one key's candidates are
// contiguous (the order the engine probes and prefetches them).
//
// BlockBuckets is force-inlined: the per-ISA horizontal lookup kernels
// (simd/horizontal_impl.h) call it from translation units built with wider
// -m flags, and an out-of-line instantiation shared across those units could
// leave baseline code calling an AVX-512 copy.
#ifndef SIMDHT_HASH_BLOCK_HASH_H_
#define SIMDHT_HASH_BLOCK_HASH_H_

#include <cstddef>
#include <cstdint>

#include "hash/hash_family.h"

namespace simdht {

// Candidate buckets for all `ways` of keys[0..n), key-major:
// out[i * ways + w] = family.Bucket<K>(w, keys[i]).
template <typename K>
SIMDHT_ALWAYS_INLINE void BlockBuckets(const HashFamily& family,
                                       unsigned ways, const K* keys,
                                       std::size_t n, std::uint32_t* out) {
  if (family.kind == HashKind::kMultiplyShift) {
    // One way at a time over the whole block: a single multiplier per loop
    // keeps the body a pure mul+shift stream the vectorizer handles.
    for (unsigned w = 0; w < ways; ++w) {
      if constexpr (sizeof(K) == 8) {
        const std::uint64_t m = family.mult[w];
        const unsigned shift = 64 - family.log2_buckets;
        for (std::size_t i = 0; i < n; ++i) {
          out[i * ways + w] =
              static_cast<std::uint32_t>((keys[i] * m) >> shift);
        }
      } else {
        const auto m = static_cast<std::uint32_t>(family.mult[w]);
        const unsigned shift = 32 - family.log2_buckets;
        for (std::size_t i = 0; i < n; ++i) {
          out[i * ways + w] =
              (static_cast<std::uint32_t>(keys[i]) * m) >> shift;
        }
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned w = 0; w < ways; ++w) {
      out[i * ways + w] = family.Bucket<K>(w, keys[i]);
    }
  }
}

// Swiss home groups: out[i] = family.Bucket<K>(0, keys[i]).
template <typename K>
inline void BlockHomeGroups(const HashFamily& family, const K* keys,
                            std::size_t n, std::uint32_t* out) {
  BlockBuckets<K>(family, 1, keys, n, out);
}

// Swiss H2 fingerprints: out[i] = family.H2<K>(keys[i]).
template <typename K>
inline void BlockH2(const HashFamily& family, const K* keys, std::size_t n,
                    std::uint8_t* out) {
  if (family.kind == HashKind::kMultiplyShift) {
    if constexpr (sizeof(K) == 8) {
      const std::uint64_t m = family.mult[1];
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(
            (static_cast<std::uint64_t>(keys[i]) * m) >> 57);
      }
    } else {
      const auto m = static_cast<std::uint32_t>(family.mult[1]);
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(
            (static_cast<std::uint32_t>(keys[i]) * m) >> 25);
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = family.H2<K>(keys[i]);
}

}  // namespace simdht

#endif  // SIMDHT_HASH_BLOCK_HASH_H_
