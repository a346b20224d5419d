// AVX-512 (512-bit) horizontal and vertical lookup kernels.
//
// Mask registers make the vertical template natural here: pending lanes are
// a __mmask8/16 driving masked gathers directly. (K,V) = (32,32) uses two
// 8-way 64-bit packed {key,val} gathers per 16 keys — the paper's preferred
// "fewer wider gathers" shape on AVX-512. Compiled with
// -mavx512f -mavx512bw -mavx512dq -mavx512vl.
#include <immintrin.h>

#include "simd/horizontal_impl.h"
#include "simd/kernel.h"

namespace simdht {
namespace {

// ---------------------------------------------------------------- horizontal

struct Avx512Ops16 {
  using Vec = __m512i;
  static constexpr unsigned kWidthBits = 512;
  static constexpr unsigned kBitsPerLane = 1;  // k-mask compares
  static Vec Splat(std::uint16_t k) {
    return _mm512_set1_epi16(static_cast<short>(k));
  }
  static Vec LoadFull(const void* p) { return _mm512_loadu_si512(p); }
  static Vec LoadTwoHalves(const void* lo, const void* hi) {
    return _mm512_inserti64x4(
        _mm512_castsi256_si512(
            _mm256_loadu_si256(static_cast<const __m256i*>(lo))),
        _mm256_loadu_si256(static_cast<const __m256i*>(hi)), 1);
  }
  static std::uint64_t CmpMask(Vec a, Vec b) {
    return _mm512_cmpeq_epi16_mask(a, b);
  }
};

struct Avx512Ops32 {
  using Vec = __m512i;
  static constexpr unsigned kWidthBits = 512;
  static constexpr unsigned kBitsPerLane = 1;
  static Vec Splat(std::uint32_t k) {
    return _mm512_set1_epi32(static_cast<int>(k));
  }
  static Vec LoadFull(const void* p) { return _mm512_loadu_si512(p); }
  static Vec LoadTwoHalves(const void* lo, const void* hi) {
    return Avx512Ops16::LoadTwoHalves(lo, hi);
  }
  static std::uint64_t CmpMask(Vec a, Vec b) {
    return _mm512_cmpeq_epi32_mask(a, b);
  }
};

struct Avx512Ops64 {
  using Vec = __m512i;
  static constexpr unsigned kWidthBits = 512;
  static constexpr unsigned kBitsPerLane = 1;
  static Vec Splat(std::uint64_t k) {
    return _mm512_set1_epi64(static_cast<long long>(k));
  }
  static Vec LoadFull(const void* p) { return _mm512_loadu_si512(p); }
  static Vec LoadTwoHalves(const void* lo, const void* hi) {
    return Avx512Ops16::LoadTwoHalves(lo, hi);
  }
  static std::uint64_t CmpMask(Vec a, Vec b) {
    return _mm512_cmpeq_epi64_mask(a, b);
  }
};

std::uint64_t HorAvx512K16(const TableView& v, const ProbeBatch& b) {
  return detail::HorizontalLookupImpl<std::uint16_t, std::uint32_t,
                                      Avx512Ops16>(v, b);
}
std::uint64_t HorAvx512K32(const TableView& v, const ProbeBatch& b) {
  return detail::HorizontalLookupImpl<std::uint32_t, std::uint32_t,
                                      Avx512Ops32>(v, b);
}
std::uint64_t HorAvx512K64(const TableView& v, const ProbeBatch& b) {
  return detail::HorizontalLookupImpl<std::uint64_t, std::uint64_t,
                                      Avx512Ops64>(v, b);
}

// ------------------------------------------------------------------ vertical

// (K,V) = (32,32): 8 keys per gather group (16 per outer iteration via the
// caller loop), packed 64-bit {key,val} gathers, k-mask pending tracking.
std::uint64_t VerAvx512K32(const TableView& view, const ProbeBatch& batch) {
  const std::uint32_t* keys = batch.keys_as<std::uint32_t>();
  std::uint32_t* vals = batch.vals_as<std::uint32_t>();
  std::uint8_t* found = batch.found;
  const std::size_t n = batch.size;
  const unsigned ways = view.spec.ways;
  const unsigned m = view.spec.slots;
  const unsigned shift = 32 - view.log2_buckets;
  const void* base = view.data;
  const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFFLL);
  std::uint64_t hits = 0;

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i k8 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m512i k64 = _mm512_cvtepu32_epi64(k8);
    __mmask8 pending = 0xFF;
    __m512i val64 = _mm512_setzero_si512();
    __mmask8 found8 = 0;

    for (unsigned way = 0; way < ways && pending; ++way) {
      const __m256i idx = _mm256_srli_epi32(
          _mm256_mullo_epi32(
              k8, _mm256_set1_epi32(
                      static_cast<int>(view.hash.mult[way] & 0xFFFFFFFF))),
          static_cast<int>(shift));
      for (unsigned slot = 0; slot < m && pending; ++slot) {
        const __m256i pidx =
            m == 1
                ? idx
                : _mm256_add_epi32(
                      _mm256_mullo_epi32(
                          idx, _mm256_set1_epi32(static_cast<int>(m))),
                      _mm256_set1_epi32(static_cast<int>(slot)));
        const __m512i g = _mm512_mask_i32gather_epi64(
            _mm512_setzero_si512(), pending, pidx, base, 8);
        const __mmask8 eq = _mm512_mask_cmpeq_epu64_mask(
            pending, _mm512_and_epi64(g, low32), k64);
        val64 = _mm512_mask_mov_epi64(val64, eq, _mm512_srli_epi64(g, 32));
        found8 |= eq;
        pending = static_cast<__mmask8>(pending & ~eq);
      }
    }

    const __m256i packed = _mm512_cvtepi64_epi32(val64);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + i), packed);
    for (unsigned l = 0; l < 8; ++l) found[i + l] = (found8 >> l) & 1;
    hits += static_cast<unsigned>(__builtin_popcount(found8));
  }

  for (; i < n; ++i) {
    const std::uint32_t key = keys[i];
    std::uint32_t value = 0;
    std::uint8_t hit = 0;
    for (unsigned way = 0; way < ways && !hit; ++way) {
      const std::uint32_t b = view.hash.Bucket32(way, key);
      for (unsigned s = 0; s < m; ++s) {
        const std::uint64_t pair = LoadArenaWord(
            view.data + (static_cast<std::uint64_t>(b) * m + s) * 8);
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

// (K,V) = (64,64): 8 keys per iteration; 16-byte slots need separate key and
// value gathers (Observation 2). Vector multiply-shift uses AVX-512DQ's
// 64-bit multiply.
std::uint64_t VerAvx512K64(const TableView& view, const ProbeBatch& batch) {
  const std::uint64_t* keys = batch.keys_as<std::uint64_t>();
  std::uint64_t* vals = batch.vals_as<std::uint64_t>();
  std::uint8_t* found = batch.found;
  const std::size_t n = batch.size;
  const unsigned ways = view.spec.ways;
  const unsigned m = view.spec.slots;
  const unsigned shift = 64 - view.log2_buckets;
  const void* base = view.data;
  std::uint64_t hits = 0;

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i k8 = _mm512_loadu_si512(keys + i);
    __mmask8 pending = 0xFF;
    __m512i val64 = _mm512_setzero_si512();
    __mmask8 found8 = 0;

    for (unsigned way = 0; way < ways && pending; ++way) {
      const __m512i idx = _mm512_srli_epi64(
          _mm512_mullo_epi64(
              k8, _mm512_set1_epi64(
                      static_cast<long long>(view.hash.mult[way]))),
          static_cast<int>(shift));
      for (unsigned slot = 0; slot < m && pending; ++slot) {
        __m512i pidx =
            m == 1 ? idx
                   : _mm512_add_epi64(
                         _mm512_mullo_epi64(
                             idx, _mm512_set1_epi64(static_cast<int>(m))),
                         _mm512_set1_epi64(static_cast<int>(slot)));
        pidx = _mm512_slli_epi64(pidx, 1);  // 64-bit word index of the key
        const __m512i gk = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), pending, pidx, base, 8);
        const __mmask8 eq = _mm512_mask_cmpeq_epu64_mask(pending, gk, k8);
        if (eq) {
          const __m512i vidx =
              _mm512_add_epi64(pidx, _mm512_set1_epi64(1));
          const __m512i gv = _mm512_mask_i64gather_epi64(
              _mm512_setzero_si512(), eq, vidx, base, 8);
          val64 = _mm512_mask_mov_epi64(val64, eq, gv);
        }
        found8 |= eq;
        pending = static_cast<__mmask8>(pending & ~eq);
      }
    }

    _mm512_storeu_si512(vals + i, val64);
    for (unsigned l = 0; l < 8; ++l) found[i + l] = (found8 >> l) & 1;
    hits += static_cast<unsigned>(__builtin_popcount(found8));
  }

  for (; i < n; ++i) {
    const std::uint64_t key = keys[i];
    std::uint64_t value = 0;
    std::uint8_t hit = 0;
    for (unsigned way = 0; way < ways && !hit; ++way) {
      const std::uint32_t b = view.hash.Bucket64(way, key);
      for (unsigned s = 0; s < m; ++s) {
        const std::uint64_t word = (static_cast<std::uint64_t>(b) * m + s) * 2;
        if (LoadArenaWord(view.data + word * 8) == key) {
          value = LoadArenaWord(view.data + (word + 1) * 8);
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
  info.level = SimdLevel::kAvx512;
  info.width_bits = 512;
  info.key_bits = kb;
  info.val_bits = vb;
  info.bucket_layout = layout;
  info.fn = fn;
  return info;
}

}  // namespace

void AppendAvx512Kernels(std::vector<KernelInfo>* out) {
  out->push_back(Make("V-Hor/AVX-512/k32v32", Approach::kHorizontal, 32, 32,
                      BucketLayout::kInterleaved, &HorAvx512K32));
  out->push_back(Make("V-Hor/AVX-512/k32v32/split", Approach::kHorizontal, 32,
                      32, BucketLayout::kSplit, &HorAvx512K32));
  out->push_back(Make("V-Hor/AVX-512/k64v64", Approach::kHorizontal, 64, 64,
                      BucketLayout::kInterleaved, &HorAvx512K64));
  out->push_back(Make("V-Hor/AVX-512/k16v32/split", Approach::kHorizontal, 16,
                      32, BucketLayout::kSplit, &HorAvx512K16));

  out->push_back(Make("V-Ver/AVX-512/k32v32", Approach::kVertical, 32, 32,
                      BucketLayout::kInterleaved, &VerAvx512K32));
  out->push_back(Make("V-Ver/AVX-512/k64v64", Approach::kVertical, 64, 64,
                      BucketLayout::kInterleaved, &VerAvx512K64));

  out->push_back(Make("V-Ver/BCHT/AVX-512/k32v32", Approach::kVerticalBcht, 32,
                      32, BucketLayout::kInterleaved, &VerAvx512K32));
  out->push_back(Make("V-Ver/BCHT/AVX-512/k64v64", Approach::kVerticalBcht, 64,
                      64, BucketLayout::kInterleaved, &VerAvx512K64));
}

}  // namespace simdht
