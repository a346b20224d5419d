// Scalar (non-SIMD) twins of the vectorized lookup templates.
//
// Per Section IV-B, the scalar counterpart replaces every vector op with
// scalar load/compare: buckets-per-vector = 1 and keys-per-iteration = 1.
// These are the "Scalar" series in every figure.
#include <algorithm>
#include <cstring>

#include "simd/kernel.h"

namespace simdht {
namespace {

// Prefetches every cache line of `key`'s candidate buckets into L2.
// Force-inlined: gcc infers a non-inlined body holding nothing but
// prefetches to be side-effect free and deletes the calls
// (scripts/check_codegen.sh fails if a ScalarLookup loses them).
template <typename K>
SIMDHT_ALWAYS_INLINE void PrefetchCandidateBuckets(const TableView& view,
                                                   K key) {
  const unsigned bytes = view.spec.bucket_bytes();
  for (unsigned w = 0; w < view.spec.ways; ++w) {
    const std::uint8_t* p = view.bucket_ptr(view.hash.Bucket<K>(w, key));
    for (unsigned off = 0; off < bytes; off += kCacheLineBytes) {
      __builtin_prefetch(p + off, 0, 1);
    }
  }
}

template <typename K, typename V>
std::uint64_t ScalarLookup(const TableView& view, const ProbeBatch& batch) {
  const K* keys = batch.keys_as<K>();
  V* vals = batch.vals_as<V>();
  std::uint8_t* found = batch.found;
  const std::size_t n = batch.size;
  const unsigned ways = view.spec.ways;
  const unsigned slots = view.spec.slots;
  std::uint64_t hits = 0;

  // The same per-key schedule as the horizontal loop (horizontal_impl.h):
  // the first d keys' candidate buckets are fetched up front, then each key
  // compared requests the lines of key i + d, so about d probes' misses
  // stay in flight as a steady stream (the fused interleave of AMAC,
  // Kocberber et al.). The compare loop itself is unchanged by d.
  const std::size_t d = batch.prefetch_distance;
  for (std::size_t i = 0; i < std::min(n, d); ++i) {
    PrefetchCandidateBuckets<K>(view, keys[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (d != 0 && i + d < n) PrefetchCandidateBuckets<K>(view, keys[i + d]);
    const K key = keys[i];
    V value = 0;
    std::uint8_t hit = 0;
    for (unsigned way = 0; way < ways && !hit; ++way) {
      const std::uint32_t b = view.hash.Bucket<K>(way, key);
      for (unsigned s = 0; s < slots; ++s) {
        K stored;
        std::memcpy(&stored, view.key_ptr(b, s), sizeof(K));
        if (stored == key) {
          std::memcpy(&value, view.val_ptr(b, s), sizeof(V));
          hit = 1;
          break;
        }
      }
    }
    vals[i] = value;
    found[i] = hit;
    hits += hit;
  }
  return hits;
}

template <typename K, typename V>
KernelInfo MakeScalar(const char* name, BucketLayout layout) {
  KernelInfo info;
  info.name = name;
  info.approach = Approach::kScalar;
  info.level = SimdLevel::kScalar;
  info.width_bits = 64;
  info.key_bits = sizeof(K) * 8;
  info.val_bits = sizeof(V) * 8;
  info.bucket_layout = layout;
  info.fn = &ScalarLookup<K, V>;
  return info;
}

}  // namespace

void AppendScalarKernels(std::vector<KernelInfo>* out) {
  out->push_back(MakeScalar<std::uint32_t, std::uint32_t>(
      "Scalar/k32v32", BucketLayout::kInterleaved));
  out->push_back(MakeScalar<std::uint32_t, std::uint32_t>(
      "Scalar/k32v32/split", BucketLayout::kSplit));
  out->push_back(MakeScalar<std::uint64_t, std::uint64_t>(
      "Scalar/k64v64", BucketLayout::kInterleaved));
  out->push_back(MakeScalar<std::uint64_t, std::uint64_t>(
      "Scalar/k64v64/split", BucketLayout::kSplit));
  out->push_back(MakeScalar<std::uint16_t, std::uint32_t>(
      "Scalar/k16v32/split", BucketLayout::kSplit));
}

}  // namespace simdht
