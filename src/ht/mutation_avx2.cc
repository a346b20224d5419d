// AVX2 mutation-scan kernel (compiled -mavx2, runtime-gated by the registry
// through CpuFeatures). The same fused per-key cuckoo scan as the SSE tier
// (ht/mutation_impl.h), with 32-byte loads: one load covers a (2,4) k32v32
// bucket or a (2,8) k32 split key block. 16-bit keys keep 16-byte loads,
// since 8 slots of u16 already fill them. Swiss groups are 16 control
// bytes, so the inline SSE2 group scan (ht/swiss_scan.h) already saturates
// that family.
#include <immintrin.h>

#include "ht/mutation.h"
#include "ht/mutation_impl.h"

namespace simdht {

namespace {

// Every scan clears the YMM upper state before it returns: left dirty, it
// taxes every legacy-SSE instruction the caller runs next (16x measured on
// libm's exp/log), and gcc's automatic vzeroupper misses some exit paths.
// scripts/check_codegen.sh checks that every exit of a scan follows one.
struct Avx2Lanes {
  static void Finish() { _mm256_zeroupper(); }
};

using K16Split = detail::K16SplitLanes<Avx2Lanes>;

struct K32Split : Avx2Lanes {
  static constexpr unsigned kSlots = 8;
  static constexpr std::size_t kBytes = 32;
  __m256i probe;
  explicit K32Split(std::uint64_t key)
      : probe(_mm256_set1_epi32(
            static_cast<int>(static_cast<std::uint32_t>(key)))) {}
  void Compare(const std::uint8_t* p, std::uint32_t* eq,
               std::uint32_t* em) const {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    *eq = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, probe))));
    *em = static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
        _mm256_cmpeq_epi32(v, _mm256_setzero_si256()))));
  }
};

struct K64Split : Avx2Lanes {
  static constexpr unsigned kSlots = 4;
  static constexpr std::size_t kBytes = 32;
  __m256i probe;
  explicit K64Split(std::uint64_t key)
      : probe(_mm256_set1_epi64x(static_cast<long long>(key))) {}
  void Compare(const std::uint8_t* p, std::uint32_t* eq,
               std::uint32_t* em) const {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    *eq = static_cast<std::uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, probe))));
    *em = static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(
        _mm256_cmpeq_epi64(v, _mm256_setzero_si256()))));
  }
};

// 4 k32v32 slots per load: zeroing each slot's value half turns the key
// compare into one 64-bit compare per slot, one mask bit each.
struct K32Interleaved : Avx2Lanes {
  static constexpr unsigned kSlots = 4;
  static constexpr std::size_t kBytes = 32;
  __m256i probe;
  explicit K32Interleaved(std::uint64_t key)
      : probe(_mm256_set1_epi64x(
            static_cast<long long>(static_cast<std::uint32_t>(key)))) {}
  void Compare(const std::uint8_t* p, std::uint32_t* eq,
               std::uint32_t* em) const {
    const __m256i keys = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
        _mm256_set1_epi64x(0xFFFFFFFFLL));
    *eq = static_cast<std::uint32_t>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(keys, probe))));
    *em = static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(
        _mm256_cmpeq_epi64(keys, _mm256_setzero_si256()))));
  }
};

// 2 k64v64 slots per load: keys sit in lanes 0 and 2, folded to bits 0-1.
struct K64Interleaved : Avx2Lanes {
  static constexpr unsigned kSlots = 2;
  static constexpr std::size_t kBytes = 32;
  __m256i probe;
  explicit K64Interleaved(std::uint64_t key)
      : probe(_mm256_set1_epi64x(static_cast<long long>(key))) {}
  static std::uint32_t KeyLanes(int lanes) {
    const auto x = static_cast<std::uint32_t>(lanes) & 0x5;
    return (x | x >> 1) & 0x3;
  }
  void Compare(const std::uint8_t* p, std::uint32_t* eq,
               std::uint32_t* em) const {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    *eq = KeyLanes(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, probe))));
    *em = KeyLanes(_mm256_movemask_pd(_mm256_castsi256_pd(
        _mm256_cmpeq_epi64(v, _mm256_setzero_si256()))));
  }
};

CuckooScanFn Avx2CuckooScanFor(const LayoutSpec& spec) {
  return detail::ScanFor<K16Split, K32Split, K64Split, K32Interleaved,
                         K64Interleaved>(spec);
}

}  // namespace

void AppendAvx2MutationKernels(std::vector<MutationKernel>* out) {
  MutationKernel cuckoo;
  cuckoo.name = "MutScan-AVX2/cuckoo";
  cuckoo.level = SimdLevel::kAvx2;
  cuckoo.cuckoo_scan_for = &Avx2CuckooScanFor;
  out->push_back(cuckoo);
}

}  // namespace simdht
