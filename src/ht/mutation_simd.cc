// SSE mutation-scan kernels (baseline vector tier, compiled -msse4.2).
//
// The cuckoo scan compares all of a key's candidate buckets per call
// (ht/mutation_impl.h) and reports one bit per slot, so the batched engines
// take the first duplicate and the first empty slot from ctz in exactly the
// order the scalar insert walks. Interleaved buckets mask the value half of
// each slot before a 64-bit compare; split buckets compare the dense key
// block directly. Selection is gated on runtime CpuFeatures by the
// registry, so compiling this TU at SSE4.2 is safe on any host.
#include <immintrin.h>

#include "ht/mutation.h"
#include "ht/mutation_impl.h"

namespace simdht {

namespace {

// The SSE scans leave no upper vector state to clear.
struct SseLanes {
  static void Finish() {}
};

using K16Split = detail::K16SplitLanes<SseLanes>;

struct K32Split : SseLanes {
  static constexpr unsigned kSlots = 4;
  static constexpr std::size_t kBytes = 16;
  __m128i probe;
  explicit K32Split(std::uint64_t key)
      : probe(_mm_set1_epi32(
            static_cast<int>(static_cast<std::uint32_t>(key)))) {}
  void Compare(const std::uint8_t* p, std::uint32_t* eq,
               std::uint32_t* em) const {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    *eq = static_cast<std::uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, probe))));
    *em = static_cast<std::uint32_t>(_mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(v, _mm_setzero_si128()))));
  }
};

struct K64Split : SseLanes {
  static constexpr unsigned kSlots = 2;
  static constexpr std::size_t kBytes = 16;
  __m128i probe;
  explicit K64Split(std::uint64_t key)
      : probe(_mm_set1_epi64x(static_cast<long long>(key))) {}
  void Compare(const std::uint8_t* p, std::uint32_t* eq,
               std::uint32_t* em) const {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    *eq = static_cast<std::uint32_t>(
        _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(v, probe))));
    *em = static_cast<std::uint32_t>(_mm_movemask_pd(
        _mm_castsi128_pd(_mm_cmpeq_epi64(v, _mm_setzero_si128()))));
  }
};

// 2 k32v32 slots per load: zeroing each slot's value half turns the key
// compare into one 64-bit compare per slot, one mask bit each.
struct K32Interleaved : SseLanes {
  static constexpr unsigned kSlots = 2;
  static constexpr std::size_t kBytes = 16;
  __m128i probe;
  explicit K32Interleaved(std::uint64_t key)
      : probe(_mm_set1_epi64x(
            static_cast<long long>(static_cast<std::uint32_t>(key)))) {}
  void Compare(const std::uint8_t* p, std::uint32_t* eq,
               std::uint32_t* em) const {
    const __m128i keys = _mm_and_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
        _mm_set1_epi64x(0xFFFFFFFFLL));
    *eq = static_cast<std::uint32_t>(
        _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(keys, probe))));
    *em = static_cast<std::uint32_t>(_mm_movemask_pd(
        _mm_castsi128_pd(_mm_cmpeq_epi64(keys, _mm_setzero_si128()))));
  }
};

// 1 k64v64 slot per load: the key is lane 0.
struct K64Interleaved : SseLanes {
  static constexpr unsigned kSlots = 1;
  static constexpr std::size_t kBytes = 16;
  __m128i probe;
  explicit K64Interleaved(std::uint64_t key)
      : probe(_mm_set1_epi64x(static_cast<long long>(key))) {}
  void Compare(const std::uint8_t* p, std::uint32_t* eq,
               std::uint32_t* em) const {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    *eq = static_cast<std::uint32_t>(_mm_movemask_pd(
              _mm_castsi128_pd(_mm_cmpeq_epi64(v, probe)))) &
          1;
    *em = static_cast<std::uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(
              _mm_cmpeq_epi64(v, _mm_setzero_si128())))) &
          1;
  }
};

CuckooScanFn SseCuckooScanFor(const LayoutSpec& spec) {
  return detail::ScanFor<K16Split, K32Split, K64Split, K32Interleaved,
                         K64Interleaved>(spec);
}

}  // namespace

void AppendSseMutationKernels(std::vector<MutationKernel>* out) {
  MutationKernel cuckoo;
  cuckoo.name = "MutScan-SSE/cuckoo";
  cuckoo.level = SimdLevel::kSse42;
  cuckoo.cuckoo_scan_for = &SseCuckooScanFor;
  out->push_back(cuckoo);
}

}  // namespace simdht
