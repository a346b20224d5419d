// The Swiss writer's control-group scan: one 16-byte SSE2 load per probed
// group, force-inlined into every SwissTable operation that probes.
//
// The free mask needs no compare of its own. FULL bytes are 0x00..0x7F and
// the two free bytes, EMPTY (0x80) and TOMBSTONE (0xFE), are the only other
// values a lane may hold (the snapshot loader rejects the rest), so exactly
// the free bytes have their sign bit set.
#ifndef SIMDHT_HT_SWISS_SCAN_H_
#define SIMDHT_HT_SWISS_SCAN_H_

#include <emmintrin.h>

#include <cstdint>

#include "common/compiler.h"
#include "ht/layout.h"

namespace simdht {

// Result of scanning one Swiss 16-slot group's control bytes: candidate
// fingerprint matches (verify keys before trusting), EMPTY bytes, and all
// free bytes (EMPTY | TOMBSTONE). Bit i = slot i.
struct GroupScan {
  std::uint32_t match_mask = 0;
  std::uint32_t empty_mask = 0;
  std::uint32_t free_mask = 0;
};

// Scans the kSwissGroupSlots control bytes at `ctrl` (a group base inside
// the control lane) for fingerprint `h2`.
SIMDHT_ALWAYS_INLINE GroupScan ScanSwissGroup(const std::uint8_t* ctrl,
                                              std::uint8_t h2) {
  static_assert(kSwissGroupSlots == 16, "one SSE2 load per group");
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  GroupScan r;
  r.match_mask = static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(h2)))));
  r.empty_mask = static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(kCtrlEmpty)))));
  r.free_mask = static_cast<std::uint32_t>(_mm_movemask_epi8(v));
  return r;
}

}  // namespace simdht

#endif  // SIMDHT_HT_SWISS_SCAN_H_
