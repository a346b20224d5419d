// The fused per-key cuckoo scan shared by the SSE4.2 and AVX2 mutation TUs
// (mutation_simd.cc, mutation_avx2.cc). Each TU supplies `Lanes` policies
// built from its own intrinsics, so include this header only from those two.
#ifndef SIMDHT_HT_MUTATION_IMPL_H_
#define SIMDHT_HT_MUTATION_IMPL_H_

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/compiler.h"
#include "ht/mutation.h"

namespace simdht {
namespace detail {

// Scans all kWays candidate buckets of one key and fuses the per-slot
// results into CuckooScan's way-major masks. `Lanes` compares one vector
// load:
//   Lanes(key)             splats the probe key
//   Compare(p, &eq, &em)   one bit per slot for the Lanes::kSlots slots
//                          starting at p: key == probe / key == 0
//   kBytes                 bytes per load
//   Finish()               runs before returning (AVX2: vzeroupper)
// Slot counts are powers of two, so a bucket is either one load (masked down
// to its kSlots slots; the lanes past them read the bucket's values or the
// next bucket) or a whole number of loads. Every shape is its own function
// with ways, slots and shifts as constants: selected once per table, the
// call costs about half of one that decodes the layout per key.
template <typename Lanes, unsigned kWays, unsigned kSlots>
CuckooScan ScanCandidates(const TableView& view,
                          const std::uint32_t* candidates, std::uint64_t key) {
  constexpr unsigned kLoads = (kSlots + Lanes::kSlots - 1) / Lanes::kSlots;
  constexpr std::uint32_t kSlotMask = (std::uint32_t{1} << kSlots) - 1;
  const Lanes lanes(key);
  const std::uint8_t* const data = view.data;
  const std::size_t stride = view.spec.bucket_bytes();
  CuckooScan r;
  for (unsigned w = 0; w < kWays; ++w) {
    const std::uint8_t* bucket = data + std::size_t{candidates[w]} * stride;
    std::uint32_t eq = 0, em = 0;
    for (unsigned c = 0; c < kLoads; ++c) {
      std::uint32_t e, z;
      lanes.Compare(bucket + c * Lanes::kBytes, &e, &z);
      eq |= e << (c * Lanes::kSlots);
      em |= z << (c * Lanes::kSlots);
    }
    r.match |= (eq & kSlotMask) << (w * kSlots);
    r.empty |= (em & kSlotMask) << (w * kSlots);
  }
  Lanes::Finish();
  return r;
}

// 8 u16 keys per 16-byte load, for both tiers: with m <= 8, 16-bit keys
// never need a wider load. Packing the two compares to bytes puts the key
// matches in mask bits 0-7 and the empty slots in bits 8-15. `Isa` supplies
// the tier's Finish().
template <typename Isa>
struct K16SplitLanes : Isa {
  static constexpr unsigned kSlots = 8;
  static constexpr std::size_t kBytes = 16;
  __m128i probe;
  explicit K16SplitLanes(std::uint64_t key)
      : probe(_mm_set1_epi16(
            static_cast<short>(static_cast<std::uint16_t>(key)))) {}
  void Compare(const std::uint8_t* p, std::uint32_t* eq,
               std::uint32_t* em) const {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const auto bits = static_cast<std::uint32_t>(_mm_movemask_epi8(
        _mm_packs_epi16(_mm_cmpeq_epi16(v, probe),
                        _mm_cmpeq_epi16(v, _mm_setzero_si128()))));
    *eq = bits & 0xFF;
    *em = bits >> 8;
  }
};

template <typename Lanes, unsigned kWays>
CuckooScanFn ScanForSlots(unsigned slots) {
  switch (slots) {
    case 1:
      return &ScanCandidates<Lanes, kWays, 1>;
    case 2:
      return &ScanCandidates<Lanes, kWays, 2>;
    case 4:
      return &ScanCandidates<Lanes, kWays, 4>;
    default:
      return &ScanCandidates<Lanes, kWays, 8>;
  }
}

template <typename Lanes>
CuckooScanFn ScanForShape(const LayoutSpec& spec) {
  switch (spec.ways) {
    case 2:
      return ScanForSlots<Lanes, 2>(spec.slots);
    case 3:
      return ScanForSlots<Lanes, 3>(spec.slots);
    default:
      return ScanForSlots<Lanes, 4>(spec.slots);
  }
}

// Picks the Lanes policy for the spec's (key width, bucket layout) class.
// Interleaved layouts pair equal key and value widths, so they come in
// k32v32 and k64v64 only.
template <typename K16Split, typename K32Split, typename K64Split,
          typename K32Interleaved, typename K64Interleaved>
CuckooScanFn ScanFor(const LayoutSpec& spec) {
  if (spec.bucket_layout == BucketLayout::kInterleaved) {
    return spec.key_bits == 32 ? ScanForShape<K32Interleaved>(spec)
                               : ScanForShape<K64Interleaved>(spec);
  }
  switch (spec.key_bits) {
    case 16:
      return ScanForShape<K16Split>(spec);
    case 32:
      return ScanForShape<K32Split>(spec);
    default:
      return ScanForShape<K64Split>(spec);
  }
}

}  // namespace detail
}  // namespace simdht

#endif  // SIMDHT_HT_MUTATION_IMPL_H_
