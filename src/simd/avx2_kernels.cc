// AVX2 (256-bit) horizontal and vertical lookup kernels.
//
// Vertical kernels use hardware gathers (_mm256_mask_i32gather_epi64). For
// (K,V) = (32,32) the table's 8-byte interleaved {key,val} slots are fetched
// with 64-bit gathers — the "fewer wider gathers" packing the paper's
// Observation 2 depends on. For (K,V) = (64,64) the key and the value need
// *separate* gathers, which is exactly the penalty the paper measures.
// Compiled with -mavx2.
#include <immintrin.h>

#include "simd/horizontal_impl.h"
#include "simd/kernel.h"

namespace simdht {
namespace {

// ---------------------------------------------------------------- horizontal

struct Avx2Ops16 {
  using Vec = __m256i;
  static constexpr unsigned kWidthBits = 256;
  static constexpr unsigned kBitsPerLane = 2;
  static Vec Splat(std::uint16_t k) {
    return _mm256_set1_epi16(static_cast<short>(k));
  }
  static Vec LoadFull(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static Vec LoadTwoHalves(const void* lo, const void* hi) {
    return _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(static_cast<const __m128i*>(lo))),
        _mm_loadu_si128(static_cast<const __m128i*>(hi)), 1);
  }
  static std::uint64_t CmpMask(Vec a, Vec b) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(a, b)));
  }
};

struct Avx2Ops32 {
  using Vec = __m256i;
  static constexpr unsigned kWidthBits = 256;
  static constexpr unsigned kBitsPerLane = 1;
  static Vec Splat(std::uint32_t k) {
    return _mm256_set1_epi32(static_cast<int>(k));
  }
  static Vec LoadFull(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static Vec LoadTwoHalves(const void* lo, const void* hi) {
    return Avx2Ops16::LoadTwoHalves(lo, hi);
  }
  static std::uint64_t CmpMask(Vec a, Vec b) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b))));
  }
};

struct Avx2Ops64 {
  using Vec = __m256i;
  static constexpr unsigned kWidthBits = 256;
  static constexpr unsigned kBitsPerLane = 1;
  static Vec Splat(std::uint64_t k) {
    return _mm256_set1_epi64x(static_cast<long long>(k));
  }
  static Vec LoadFull(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static Vec LoadTwoHalves(const void* lo, const void* hi) {
    return Avx2Ops16::LoadTwoHalves(lo, hi);
  }
  static std::uint64_t CmpMask(Vec a, Vec b) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b))));
  }
};

std::uint64_t HorAvx2K16(const TableView& v, const ProbeBatch& b) {
  return detail::HorizontalLookupImpl<std::uint16_t, std::uint32_t, Avx2Ops16>(
      v, b);
}
std::uint64_t HorAvx2K32(const TableView& v, const ProbeBatch& b) {
  return detail::HorizontalLookupImpl<std::uint32_t, std::uint32_t, Avx2Ops32>(
      v, b);
}
std::uint64_t HorAvx2K64(const TableView& v, const ProbeBatch& b) {
  return detail::HorizontalLookupImpl<std::uint64_t, std::uint64_t, Avx2Ops64>(
      v, b);
}

// ------------------------------------------------------------------ vertical

// (K,V) = (32,32): 4 keys per gather group, packed 64-bit {key,val} gathers.
// Handles m == 1 (pure vertical, Algo 2) and m > 1 (Case Study 5: vertical
// over BCHT with selective masked gathers per slot).
std::uint64_t VerAvx2K32(const TableView& view, const ProbeBatch& batch) {
  const std::uint32_t* keys = batch.keys_as<std::uint32_t>();
  std::uint32_t* vals = batch.vals_as<std::uint32_t>();
  std::uint8_t* found = batch.found;
  const std::size_t n = batch.size;
  const unsigned ways = view.spec.ways;
  const unsigned m = view.spec.slots;
  const unsigned shift = 32 - view.log2_buckets;
  const auto* base = reinterpret_cast<const long long*>(view.data);
  const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  std::uint64_t hits = 0;

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i k4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i));
    const __m256i k64 = _mm256_cvtepu32_epi64(k4);
    __m256i pending = _mm256_set1_epi64x(-1);
    __m256i val64 = _mm256_setzero_si256();
    __m256i found64 = _mm256_setzero_si256();

    for (unsigned way = 0; way < ways; ++way) {
      const __m128i idx = _mm_srli_epi32(
          _mm_mullo_epi32(
              k4, _mm_set1_epi32(
                      static_cast<int>(view.hash.mult[way] & 0xFFFFFFFF))),
          static_cast<int>(shift));
      for (unsigned slot = 0; slot < m; ++slot) {
        // Pair index = bucket * m + slot over 8-byte {key,val} slots.
        const __m128i pidx =
            m == 1 ? idx
                   : _mm_add_epi32(
                         _mm_mullo_epi32(idx,
                                         _mm_set1_epi32(static_cast<int>(m))),
                         _mm_set1_epi32(static_cast<int>(slot)));
        // Selective gather: only lanes still pending fetch memory.
        const __m256i g = _mm256_mask_i32gather_epi64(
            _mm256_setzero_si256(), base, pidx, pending, 8);
        const __m256i gkey = _mm256_and_si256(g, low32);
        __m256i eq = _mm256_cmpeq_epi64(gkey, k64);
        eq = _mm256_and_si256(eq, pending);
        val64 = _mm256_blendv_epi8(val64, _mm256_srli_epi64(g, 32), eq);
        found64 = _mm256_or_si256(found64, eq);
        pending = _mm256_andnot_si256(eq, pending);
        if (_mm256_testz_si256(pending, pending)) goto batch_done;
      }
    }
  batch_done:
    // Pack the four 64-bit lanes' low halves into four 32-bit results.
    const __m256i packed = _mm256_permutevar8x32_epi32(
        val64, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(vals + i),
                     _mm256_castsi256_si128(packed));
    const unsigned fm = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(found64)));
    for (unsigned l = 0; l < 4; ++l) found[i + l] = (fm >> l) & 1;
    hits += static_cast<unsigned>(__builtin_popcount(fm));
  }

  // Scalar tail.
  for (; i < n; ++i) {
    const std::uint32_t key = keys[i];
    std::uint32_t value = 0;
    std::uint8_t hit = 0;
    for (unsigned way = 0; way < ways && !hit; ++way) {
      const std::uint32_t b = view.hash.Bucket32(way, key);
      for (unsigned s = 0; s < m; ++s) {
        const std::uint64_t pair =
            LoadArenaWord(base + (static_cast<std::uint64_t>(b) * m + s));
        if (static_cast<std::uint32_t>(pair) == key) {
          value = static_cast<std::uint32_t>(pair >> 32);
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

// (K,V) = (64,64): 4 keys per group; 16-byte slots force separate key and
// value gathers (no packing possible — Observation 2's penalty). Bucket
// indices are computed scalar because AVX2 has no 64-bit vector multiply.
std::uint64_t VerAvx2K64(const TableView& view, const ProbeBatch& batch) {
  const std::uint64_t* keys = batch.keys_as<std::uint64_t>();
  std::uint64_t* vals = batch.vals_as<std::uint64_t>();
  std::uint8_t* found = batch.found;
  const std::size_t n = batch.size;
  const unsigned ways = view.spec.ways;
  const unsigned m = view.spec.slots;
  const auto* base = reinterpret_cast<const long long*>(view.data);
  std::uint64_t hits = 0;

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i k4 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    __m256i pending = _mm256_set1_epi64x(-1);
    __m256i val64 = _mm256_setzero_si256();
    __m256i found64 = _mm256_setzero_si256();

    for (unsigned way = 0; way < ways; ++way) {
      // Scalar multiply-shift per lane (no _mm256_mullo_epi64 in AVX2).
      alignas(32) std::uint32_t idx_arr[4];
      for (unsigned l = 0; l < 4; ++l) {
        idx_arr[l] = view.hash.Bucket64(way, keys[i + l]);
      }
      const __m128i idx =
          _mm_load_si128(reinterpret_cast<const __m128i*>(idx_arr));
      for (unsigned slot = 0; slot < m; ++slot) {
        // 16-byte slots: 64-bit word index = (bucket*m + slot) * 2.
        __m128i pidx =
            m == 1 ? idx
                   : _mm_add_epi32(
                         _mm_mullo_epi32(idx,
                                         _mm_set1_epi32(static_cast<int>(m))),
                         _mm_set1_epi32(static_cast<int>(slot)));
        pidx = _mm_slli_epi32(pidx, 1);
        const __m256i gk = _mm256_mask_i32gather_epi64(
            _mm256_setzero_si256(), base, pidx, pending, 8);
        __m256i eq = _mm256_cmpeq_epi64(gk, k4);
        eq = _mm256_and_si256(eq, pending);
        if (!_mm256_testz_si256(eq, eq)) {
          const __m128i vidx = _mm_add_epi32(pidx, _mm_set1_epi32(1));
          const __m256i gv = _mm256_mask_i32gather_epi64(
              _mm256_setzero_si256(), base, vidx, eq, 8);
          val64 = _mm256_blendv_epi8(val64, gv, eq);
        }
        found64 = _mm256_or_si256(found64, eq);
        pending = _mm256_andnot_si256(eq, pending);
        if (_mm256_testz_si256(pending, pending)) goto batch_done;
      }
    }
  batch_done:
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + i), val64);
    const unsigned fm = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(found64)));
    for (unsigned l = 0; l < 4; ++l) found[i + l] = (fm >> l) & 1;
    hits += static_cast<unsigned>(__builtin_popcount(fm));
  }

  for (; i < n; ++i) {
    const std::uint64_t key = keys[i];
    std::uint64_t value = 0;
    std::uint8_t hit = 0;
    for (unsigned way = 0; way < ways && !hit; ++way) {
      const std::uint32_t b = view.hash.Bucket64(way, key);
      for (unsigned s = 0; s < m; ++s) {
        const std::uint64_t word =
            static_cast<std::uint64_t>(b) * m + s;
        if (LoadArenaWord(base + 2 * word) == key) {
          value = LoadArenaWord(base + 2 * word + 1);
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

KernelInfo Make(const char* name, Approach approach, unsigned kb, unsigned vb,
                BucketLayout layout, LookupFn fn) {
  KernelInfo info;
  info.name = name;
  info.approach = approach;
  info.level = SimdLevel::kAvx2;
  info.width_bits = 256;
  info.key_bits = kb;
  info.val_bits = vb;
  info.bucket_layout = layout;
  info.fn = fn;
  return info;
}

}  // namespace

void AppendAvx2Kernels(std::vector<KernelInfo>* out) {
  out->push_back(Make("V-Hor/AVX2/k32v32", Approach::kHorizontal, 32, 32,
                      BucketLayout::kInterleaved, &HorAvx2K32));
  out->push_back(Make("V-Hor/AVX2/k32v32/split", Approach::kHorizontal,
                      32, 32, BucketLayout::kSplit, &HorAvx2K32));
  out->push_back(Make("V-Hor/AVX2/k64v64", Approach::kHorizontal, 64, 64,
                      BucketLayout::kInterleaved, &HorAvx2K64));
  out->push_back(Make("V-Hor/AVX2/k16v32/split", Approach::kHorizontal,
                      16, 32, BucketLayout::kSplit, &HorAvx2K16));

  out->push_back(Make("V-Ver/AVX2/k32v32", Approach::kVertical, 32, 32,
                      BucketLayout::kInterleaved, &VerAvx2K32));
  out->push_back(Make("V-Ver/AVX2/k64v64", Approach::kVertical, 64, 64,
                      BucketLayout::kInterleaved, &VerAvx2K64));

  // Case Study 5: the same gather kernels applied to bucketized tables
  // (m > 1) with selective per-slot gathers.
  out->push_back(Make("V-Ver/BCHT/AVX2/k32v32", Approach::kVerticalBcht,
                      32, 32, BucketLayout::kInterleaved, &VerAvx2K32));
  out->push_back(Make("V-Ver/BCHT/AVX2/k64v64", Approach::kVerticalBcht,
                      64, 64, BucketLayout::kInterleaved, &VerAvx2K64));
}

}  // namespace simdht
