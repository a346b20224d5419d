// Generic horizontal-vectorization lookup core (paper Algorithm 1).
//
// One probe key is replicated across the vector ("vec_set_lanes"), whole
// buckets are loaded ("vec_load_buckets") and compared in a single
// instruction ("vec_cmpeq"); a match mask then locates the payload
// ("vec_reduce"). The core is templated on an ISA policy `Ops` supplied by
// the per-ISA translation units, so this header must only be included from
// files compiled with the matching -m flags.
//
// Probe shapes (resolved once per call from the TableView, each with its
// own instantiation of the one per-key loop below):
//   * kPair:      2 buckets/vec (>= 256-bit) — the paper's "pessimistic"
//                 probe of both candidate buckets in one compare
//   * kPerBucket: 1 bucket/vec, upper lanes masked off
//   * kChunked:   bucket block > vector: block/width loads per bucket — the
//                 Fig 7(b) AVX2-over-(2,8)-BCHT configuration
//
// Memory-level parallelism lives inside the loop: the batch is block-hashed
// (hash/block_hash.h) a tile at a time, and right before comparing key i
// the loop prefetches the candidate buckets of key i + d, where d is
// ProbeBatch::prefetch_distance (kProbePrefetchDistance on the library's
// read paths, 0 = none; clamped to the 64-key hash tile). The
// per-key result is written without a data-dependent branch, so a
// mispredicted hit/miss or which-bucket branch never flushes the run-ahead
// window that overlaps the next keys' misses.
#ifndef SIMDHT_SIMD_HORIZONTAL_IMPL_H_
#define SIMDHT_SIMD_HORIZONTAL_IMPL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/compiler.h"
#include "hash/block_hash.h"
#include "simd/kernel.h"

namespace simdht {
namespace detail {

// Key-lane bit pattern for `count` slots starting at slot 0 of a block.
// In the interleaved layout key lanes are the even lanes; in split layout
// every block lane is a key lane. `bits_per_lane` is how many mask bits the
// ISA's compare emits per K-sized lane (movemask_epi8 emits 2 per u16).
inline std::uint64_t SlotKeyMask(unsigned count, bool interleaved,
                                 unsigned bits_per_lane) {
  std::uint64_t mask = 0;
  for (unsigned s = 0; s < count; ++s) {
    const unsigned lane = interleaved ? 2 * s : s;
    mask |= std::uint64_t{1} << (lane * bits_per_lane);
  }
  return mask;
}

enum class ProbeShape { kPair, kPerBucket, kChunked };

// Prefetches every cache line of the kWays buckets in `candidates` into L2
// (the L1 hint measured about a quarter slower on a 256 MiB table).
// Force-inlined: gcc infers a non-inlined body holding nothing but
// prefetches to be side-effect free and deletes the calls.
template <unsigned kWays>
SIMDHT_ALWAYS_INLINE void PrefetchCandidates(
    const std::uint8_t* data, std::size_t stride,
    const std::uint32_t* candidates) {
  for (unsigned w = 0; w < kWays; ++w) {
    const std::uint8_t* p = data + candidates[w] * stride;
    for (std::size_t off = 0; off < stride; off += kCacheLineBytes) {
      __builtin_prefetch(p + off, 0, 1);
    }
  }
}

// Keys block-hashed per BlockBuckets call. The candidate ring holds two
// tiles: the next tile is hashed while the current one is compared, so any
// prefetch distance up to one tile finds its key already hashed. Larger
// distances clamp to it — lines fetched further ahead than the core can
// track only get evicted before use.
inline constexpr std::size_t kHashTile = 64;

// The per-key loop for one probe shape. Every candidate vector is compared
// and all masks fuse into one 64-bit word (each load's mask occupies exactly
// kLanes * kBpl bits; at most 64 for every supported shape — m <= 8 keeps a
// bucket's key lanes within 16 mask bits and 2-per-vector shapes cap the
// load count at 2). The first set bit then names the bucket and slot by
// arithmetic alone: a bucket spans 2^lane_shift lanes of the concatenated
// loads, and a miss (mask 0) reads slot 0 of the first bucket and masks the
// value to 0.
template <typename K, typename V, typename Ops, ProbeShape kShape,
          unsigned kWays>
std::uint64_t ProbeLoop(const TableView& view, const ProbeBatch& batch) {
  constexpr unsigned kLanes = Ops::kWidthBits / (8 * sizeof(K));
  constexpr unsigned kBpl = Ops::kBitsPerLane;
  constexpr unsigned kLoadBits = kLanes * kBpl;
  constexpr std::size_t kRing = 2 * kHashTile;

  const K* keys = batch.keys_as<K>();
  V* vals = batch.vals_as<V>();
  std::uint8_t* found = batch.found;
  const std::size_t n = batch.size;
  // Locals, not view fields: the found[] byte stores may alias anything, so
  // fields read through `view` would be reloaded on every key.
  const std::uint8_t* const data = view.data;
  const std::size_t stride = view.spec.bucket_bytes();
  const unsigned m = view.spec.slots;
  const bool interleaved =
      view.spec.bucket_layout == BucketLayout::kInterleaved;

  const unsigned block_lanes = interleaved ? 2 * m : m;
  const unsigned chunks =
      kShape == ProbeShape::kChunked ? block_lanes / kLanes : 1;
  const std::size_t chunk_bytes = Ops::kWidthBits / 8;
  const std::uint64_t load_mask = SlotKeyMask(
      kShape == ProbeShape::kChunked ? kLanes >> interleaved : m, interleaved,
      kBpl);
  const std::uint64_t pair_mask = load_mask | load_mask << (kLoadBits / 2);
  const unsigned lane_shift = static_cast<unsigned>(__builtin_ctz(
      kShape == ProbeShape::kPair ? kLanes / 2 : chunks * kLanes));
  const unsigned lane_mask = (1u << lane_shift) - 1;
  // Byte offset of the value paired with key lane L: (L + 1) * sizeof(K)
  // interleaved (L is even), m * sizeof(K) + L * sizeof(V) split.
  const std::size_t val_off = interleaved ? sizeof(K) : m * sizeof(K);
  const std::size_t val_stride = interleaved ? sizeof(K) : sizeof(V);

  const std::size_t d =
      std::min<std::size_t>(batch.prefetch_distance, kHashTile);

  std::uint32_t ring[kRing * kWays];
  BlockBuckets<K>(view.hash, kWays, keys, std::min(n, kHashTile), ring);
  for (std::size_t i = 0; i < std::min(n, d); ++i) {
    PrefetchCandidates<kWays>(data, stride, ring + i * kWays);
  }

  std::uint64_t hits = 0;
  for (std::size_t tile = 0; tile < n; tile += kHashTile) {
    const std::size_t next = tile + kHashTile;
    if (next < n) {
      BlockBuckets<K>(view.hash, kWays, keys + next,
                      std::min(kHashTile, n - next),
                      ring + next % kRing * kWays);
    }
    const std::size_t end = std::min(n, next);
    for (std::size_t i = tile; i < end; ++i) {
      if (d != 0) {
        PrefetchCandidates<kWays>(data, stride,
                                  ring + std::min(i + d, n - 1) % kRing *
                                             kWays);
      }
      const std::uint32_t* candidates = ring + i % kRing * kWays;
      const auto probe = Ops::Splat(keys[i]);
      std::uint64_t mask = 0;
      if constexpr (kShape == ProbeShape::kPair) {
#pragma GCC unroll 2
        for (unsigned g = 0; g < (kWays + 1) / 2; ++g) {
          const std::uint8_t* lo = data + candidates[2 * g] * stride;
          std::uint64_t match;
          if (2 * g + 1 < kWays) {
            const std::uint8_t* hi = data + candidates[2 * g + 1] * stride;
            match = Ops::CmpMask(Ops::LoadTwoHalves(lo, hi), probe) &
                    pair_mask;
          } else {
            match = Ops::CmpMask(Ops::LoadFull(lo), probe) & load_mask;
          }
          mask |= match << (g * kLoadBits);
        }
      } else {
#pragma GCC unroll 4
        for (unsigned w = 0; w < kWays; ++w) {
          const std::uint8_t* base = data + candidates[w] * stride;
          for (unsigned c = 0; c < chunks; ++c) {
            const std::uint64_t match =
                Ops::CmpMask(Ops::LoadFull(base + c * chunk_bytes), probe) &
                load_mask;
            mask |= match << ((w * chunks + c) * kLoadBits);
          }
        }
      }
      const unsigned hit = mask != 0;
      const unsigned lane =
          static_cast<unsigned>(__builtin_ctzll(mask | (hit ^ 1u))) / kBpl;
      const std::uint8_t* bucket = data + candidates[lane >> lane_shift] *
                                              stride;
      V value;
      std::memcpy(&value, bucket + val_off + (lane & lane_mask) * val_stride,
                  sizeof(V));
      vals[i] = value & (V{0} - static_cast<V>(hit));
      found[i] = static_cast<std::uint8_t>(hit);
      hits += hit;
    }
  }
  return hits;
}

template <typename K, typename V, typename Ops, ProbeShape kShape>
std::uint64_t DispatchWays(const TableView& view, const ProbeBatch& batch) {
  switch (view.spec.ways) {
    case 2:
      return ProbeLoop<K, V, Ops, kShape, 2>(view, batch);
    case 3:
      return ProbeLoop<K, V, Ops, kShape, 3>(view, batch);
    default:
      return ProbeLoop<K, V, Ops, kShape, 4>(view, batch);
  }
}

template <typename K, typename V, typename Ops>
std::uint64_t HorizontalLookupImpl(const TableView& view,
                                   const ProbeBatch& batch) {
  if (batch.size == 0) return 0;
  const unsigned per_vector =
      HorizontalBucketsPerVector(view.spec, Ops::kWidthBits);
  if constexpr (Ops::kWidthBits >= 256) {
    if (per_vector >= 2) {
      return DispatchWays<K, V, Ops, ProbeShape::kPair>(view, batch);
    }
  }
  if (per_vector == 1) {
    return DispatchWays<K, V, Ops, ProbeShape::kPerBucket>(view, batch);
  }
  return DispatchWays<K, V, Ops, ProbeShape::kChunked>(view, batch);
}

}  // namespace detail
}  // namespace simdht

#endif  // SIMDHT_SIMD_HORIZONTAL_IMPL_H_
