// SSE4.2 (128-bit) horizontal lookup kernels.
//
// SSE has no hardware gather, so only the horizontal approach exists at this
// tier — this is why Listing 1 shows no 128-bit option for the vertical
// designs. A 128-bit vector holds at most one bucket block, so these Ops
// need no LoadTwoHalves. Compiled with -msse4.2 only.
#include <immintrin.h>

#include "simd/horizontal_impl.h"
#include "simd/kernel.h"

namespace simdht {
namespace {

struct SseOps16 {
  using Vec = __m128i;
  static constexpr unsigned kWidthBits = 128;
  static constexpr unsigned kBitsPerLane = 2;  // movemask_epi8 on u16 lanes
  static Vec Splat(std::uint16_t k) {
    return _mm_set1_epi16(static_cast<short>(k));
  }
  static Vec LoadFull(const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  }
  static std::uint64_t CmpMask(Vec a, Vec b) {
    return static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi16(a, b)));
  }
};

struct SseOps32 {
  using Vec = __m128i;
  static constexpr unsigned kWidthBits = 128;
  static constexpr unsigned kBitsPerLane = 1;
  static Vec Splat(std::uint32_t k) {
    return _mm_set1_epi32(static_cast<int>(k));
  }
  static Vec LoadFull(const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  }
  static std::uint64_t CmpMask(Vec a, Vec b) {
    return static_cast<std::uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(a, b))));
  }
};

struct SseOps64 {
  using Vec = __m128i;
  static constexpr unsigned kWidthBits = 128;
  static constexpr unsigned kBitsPerLane = 1;
  static Vec Splat(std::uint64_t k) {
    return _mm_set1_epi64x(static_cast<long long>(k));
  }
  static Vec LoadFull(const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  }
  static std::uint64_t CmpMask(Vec a, Vec b) {
    return static_cast<std::uint32_t>(
        _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(a, b))));
  }
};

std::uint64_t HorSse16(const TableView& v, const ProbeBatch& b) {
  return detail::HorizontalLookupImpl<std::uint16_t, std::uint32_t, SseOps16>(
      v, b);
}
std::uint64_t HorSse32(const TableView& v, const ProbeBatch& b) {
  return detail::HorizontalLookupImpl<std::uint32_t, std::uint32_t, SseOps32>(
      v, b);
}
std::uint64_t HorSse64(const TableView& v, const ProbeBatch& b) {
  return detail::HorizontalLookupImpl<std::uint64_t, std::uint64_t, SseOps64>(
      v, b);
}

KernelInfo Make(const char* name, unsigned kb, unsigned vb,
                BucketLayout layout, LookupFn fn) {
  KernelInfo info;
  info.name = name;
  info.approach = Approach::kHorizontal;
  info.level = SimdLevel::kSse42;
  info.width_bits = 128;
  info.key_bits = kb;
  info.val_bits = vb;
  info.bucket_layout = layout;
  info.fn = fn;
  return info;
}

}  // namespace

void AppendSseKernels(std::vector<KernelInfo>* out) {
  out->push_back(Make("V-Hor/SSE/k32v32", 32, 32,
                      BucketLayout::kInterleaved, &HorSse32));
  out->push_back(Make("V-Hor/SSE/k32v32/split", 32, 32, BucketLayout::kSplit,
                      &HorSse32));
  out->push_back(Make("V-Hor/SSE/k64v64", 64, 64,
                      BucketLayout::kInterleaved, &HorSse64));
  out->push_back(Make("V-Hor/SSE/k16v32/split", 16, 32, BucketLayout::kSplit,
                      &HorSse16));
}

}  // namespace simdht
