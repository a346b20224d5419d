// Key-value item format stored in slab memory.
//
// An item is a contiguous allocation: [ItemHeader][key bytes][value bytes],
// placed at an address aligned for ItemHeader (slab chunks are 8-byte
// aligned, so this holds for every slab allocation).
// Item handles are the item's address as a 64-bit integer — this is what
// the MemC3 table stores next to its tags, and what the SIMD backends'
// shared pointer array holds (Section VI-B: the 32-bit HT payload indexes
// an array of these 64-bit object pointers).
#ifndef SIMDHT_KVS_ITEM_H_
#define SIMDHT_KVS_ITEM_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace simdht {

struct ItemHeader {
  std::uint16_t key_len = 0;
  std::uint8_t clock_bit = 0;  // CLOCK-LRU reference bit (set on access)
  std::uint8_t flags = 0;
  std::uint32_t val_len = 0;
};
static_assert(sizeof(ItemHeader) == 8);

inline std::size_t ItemBytes(std::size_t key_len, std::size_t val_len) {
  return sizeof(ItemHeader) + key_len + val_len;
}

// Writes an item into `mem` (which must hold ItemBytes(...)).
inline void WriteItem(void* mem, std::string_view key, std::string_view val) {
  auto* header = static_cast<ItemHeader*>(mem);
  header->key_len = static_cast<std::uint16_t>(key.size());
  header->clock_bit = 1;
  header->flags = 0;
  header->val_len = static_cast<std::uint32_t>(val.size());
  auto* p = static_cast<std::uint8_t*>(mem) + sizeof(ItemHeader);
  std::memcpy(p, key.data(), key.size());
  std::memcpy(p + key.size(), val.data(), val.size());
}

inline const ItemHeader* ItemAt(std::uint64_t handle) {
  return reinterpret_cast<const ItemHeader*>(handle);
}

inline std::string_view ItemKey(std::uint64_t handle) {
  const auto* header = ItemAt(handle);
  const auto* p =
      reinterpret_cast<const char*>(handle) + sizeof(ItemHeader);
  return {p, header->key_len};
}

inline std::string_view ItemVal(std::uint64_t handle) {
  const auto* header = ItemAt(handle);
  const auto* p = reinterpret_cast<const char*>(handle) +
                  sizeof(ItemHeader) + header->key_len;
  return {p, header->val_len};
}

// Full-key verification — the non-SIMD step the paper identifies as the
// residual cost inside the SIMD-accelerated lookup phase (Section VI-B).
inline bool ItemKeyEquals(std::uint64_t handle, std::string_view key) {
  const auto* header = ItemAt(handle);
  if (header->key_len != key.size()) return false;
  return std::memcmp(reinterpret_cast<const char*>(handle) +
                         sizeof(ItemHeader),
                     key.data(), key.size()) == 0;
}

// CLOCK reference-bit access. Serving threads touch the same item at once,
// so the bit is a relaxed atomic byte (one plain `mov` on x86). It is
// advisory: a lost update only makes eviction slightly less accurate, as
// in memcached.
inline void TouchItem(std::uint64_t handle) {
  std::atomic_ref<std::uint8_t>(reinterpret_cast<ItemHeader*>(handle)
                                    ->clock_bit)
      .store(1, std::memory_order_relaxed);
}
inline bool TestAndClearClockBit(std::uint64_t handle) {
  return std::atomic_ref<std::uint8_t>(reinterpret_cast<ItemHeader*>(handle)
                                           ->clock_bit)
             .exchange(0, std::memory_order_relaxed) != 0;
}

}  // namespace simdht

#endif  // SIMDHT_KVS_ITEM_H_
