#include "ht/swiss_table.h"

#include <algorithm>

#include "hash/block_hash.h"
#include "ht/swiss_scan.h"

namespace simdht {

template <typename K, typename V>
SwissTable<K, V>::SwissTable(std::uint64_t min_groups, std::uint64_t seed,
                             HashKind hash_kind)
    : store_(TableShape::For(
                 LayoutSpec::Swiss(sizeof(K) * 8, sizeof(V) * 8), min_groups),
             seed, hash_kind) {}

template <typename K, typename V>
void SwissTable<K, V>::RestoreState(const HashFamily& hash, std::uint64_t size,
                                    std::uint64_t seed) {
  store_.Restore(hash, size, seed);
  tombstones_ = 0;
  for (std::uint64_t s = 0; s < capacity(); ++s) {
    tombstones_ += store_.CtrlAt(s) == kCtrlTombstone;
  }
}

template <typename K, typename V>
bool SwissTable<K, V>::Find(K key, V* val) const {
  std::uint64_t g;
  unsigned s;
  if (!Locate(key, &g, &s)) return false;
  *val = store_.ValAt<V>(g, s);
  return true;
}

template <typename K, typename V>
bool SwissTable<K, V>::Locate(K key, std::uint64_t* group, unsigned* slot,
                              std::uint32_t* empty_mask) const {
  const std::uint8_t h2 = store_.hash().H2<K>(key);
  const std::uint8_t* ctrl = store_.meta_data();
  const std::uint64_t groups = store_.num_buckets();
  const std::uint64_t mask = groups - 1;
  std::uint64_t g = HomeGroup(key);
  for (std::uint64_t probed = 0; probed < groups; ++probed) {
    const GroupScan scan = ScanSwissGroup(ctrl + g * kSwissGroupSlots, h2);
    for (std::uint32_t m = scan.match_mask; m != 0; m &= m - 1) {
      const auto s = static_cast<unsigned>(__builtin_ctz(m));
      if (store_.KeyAt<K>(g, s) == key) {
        *group = g;
        *slot = s;
        if (empty_mask != nullptr) *empty_mask = scan.empty_mask;
        return true;
      }
    }
    // A group with an EMPTY byte proves the key is absent beyond it.
    if (scan.empty_mask != 0) return false;
    g = (g + 1) & mask;
  }
  return false;
}

template <typename K, typename V>
bool SwissTable<K, V>::Insert(K key, V val) {
  if (key == static_cast<K>(kEmptyKey)) {
    ++stats_.failed_inserts;
    return false;
  }
  const std::uint8_t h2 = store_.hash().H2<K>(key);
  const std::uint64_t groups = store_.num_buckets();
  const std::uint64_t mask = groups - 1;
  std::uint64_t g = HomeGroup(key);

  // Find-or-prepare-insert: walk the probe sequence remembering the first
  // free (EMPTY or TOMBSTONE) slot. An existing key is overwritten where it
  // sits; a new key lands in the remembered slot, which precedes every
  // EMPTY of the sequence — that placement is what maintains the probe
  // invariant documented in the header.
  bool have_free = false;
  bool free_is_tombstone = false;
  std::uint64_t free_group = 0;
  unsigned free_slot = 0;

  for (std::uint64_t probed = 0; probed < groups; ++probed) {
    const std::uint64_t base = g * kSwissGroupSlots;
    bool has_empty = false;
    for (unsigned s = 0; s < kSwissGroupSlots; ++s) {
      const std::uint8_t c = store_.CtrlAt(base + s);
      if (c == h2 && store_.KeyAt<K>(g, s) == key) {
        store_.SetVal<V>(g, s, val);
        ++stats_.updates;
        return true;
      }
      if (c == kCtrlEmpty) {
        has_empty = true;
        if (!have_free) {
          have_free = true;
          free_group = g;
          free_slot = s;
        }
      } else if (c == kCtrlTombstone && !have_free) {
        have_free = true;
        free_is_tombstone = true;
        free_group = g;
        free_slot = s;
      }
    }
    // A group with an EMPTY byte proves the key is absent beyond it.
    if (has_empty) break;
    g = (g + 1) & mask;
  }

  if (!have_free) {
    ++stats_.failed_inserts;
    return false;
  }
  store_.SetSlot<K, V>(free_group, free_slot, key, val);
  store_.SetCtrl(free_group * kSwissGroupSlots + free_slot, h2);
  store_.AdjustSize(1);
  ++stats_.inserts;
  if (free_is_tombstone) {
    ++stats_.tombstone_reuses;
    --tombstones_;
  }
  return true;
}

template <typename K, typename V>
void SwissTable<K, V>::BatchInsert(const MutationBatch<K, V>& batch) {
  const std::uint64_t groups = store_.num_buckets();
  const std::uint64_t mask = groups - 1;
  std::uint32_t homes[kMutationChunk];
  std::uint8_t h2s[kMutationChunk];
  for (std::size_t base = 0; base < batch.size; base += kMutationChunk) {
    const std::size_t n = std::min(kMutationChunk, batch.size - base);
    const K* keys = batch.keys + base;
    const V* vals = batch.vals + base;
    const TableView view = store_.view();
    BlockHomeGroups<K>(store_.hash(), keys, n, homes);
    BlockH2<K>(store_.hash(), keys, n, h2s);
    for (std::size_t i = 0; i < n; ++i) PrefetchGroupForWrite(view, homes[i]);
    for (std::size_t i = 0; i < n; ++i) {
      const K key = keys[i];
      std::uint8_t r = 0;
      if (key == static_cast<K>(kEmptyKey)) {
        ++stats_.failed_inserts;  // the scalar reject path counts
      } else {
        const std::uint8_t h2 = h2s[i];
        std::uint64_t g = homes[i];
        bool have_free = false;
        bool free_is_tombstone = false;
        std::uint64_t free_group = 0;
        unsigned free_slot = 0;
        bool updated = false;
        bool stop = false;
        for (std::uint64_t probed = 0; probed < groups && !stop; ++probed) {
          const GroupScan scan =
              ScanSwissGroup(view.meta + g * kSwissGroupSlots, h2);
          for (std::uint32_t m = scan.match_mask; m != 0; m &= m - 1) {
            const auto s = static_cast<unsigned>(__builtin_ctz(m));
            if (store_.KeyAt<K>(g, s) == key) {
              store_.SetVal<V>(g, s, vals[i]);
              ++stats_.updates;
              updated = true;
              stop = true;
              break;
            }
          }
          if (!stop) {
            if (!have_free && scan.free_mask != 0) {
              have_free = true;
              free_group = g;
              free_slot = static_cast<unsigned>(__builtin_ctz(scan.free_mask));
              free_is_tombstone = (scan.empty_mask >> free_slot & 1) == 0;
            }
            // A group with an EMPTY byte proves the key is absent beyond it.
            if (scan.empty_mask != 0) stop = true;
          }
          g = (g + 1) & mask;
        }
        if (updated) {
          r = 1;
        } else if (!have_free) {
          ++stats_.failed_inserts;
        } else {
          store_.SetSlot<K, V>(free_group, free_slot, key, vals[i]);
          store_.SetCtrl(free_group * kSwissGroupSlots + free_slot, h2);
          store_.AdjustSize(1);
          ++stats_.inserts;
          if (free_is_tombstone) {
            ++stats_.tombstone_reuses;
            --tombstones_;
          }
          r = 1;
        }
      }
      if (batch.ok != nullptr) batch.ok[base + i] = r;
    }
  }
}

template <typename K, typename V>
void SwissTable<K, V>::BatchUpdate(const MutationBatch<K, V>& batch) {
  const std::uint64_t groups = store_.num_buckets();
  const std::uint64_t mask = groups - 1;
  std::uint32_t homes[kMutationChunk];
  std::uint8_t h2s[kMutationChunk];
  for (std::size_t base = 0; base < batch.size; base += kMutationChunk) {
    const std::size_t n = std::min(kMutationChunk, batch.size - base);
    const K* keys = batch.keys + base;
    const V* vals = batch.vals + base;
    const TableView view = store_.view();
    BlockHomeGroups<K>(store_.hash(), keys, n, homes);
    BlockH2<K>(store_.hash(), keys, n, h2s);
    for (std::size_t i = 0; i < n; ++i) PrefetchGroupForWrite(view, homes[i]);
    for (std::size_t i = 0; i < n; ++i) {
      const K key = keys[i];
      const std::uint8_t h2 = h2s[i];
      std::uint64_t g = homes[i];
      std::uint8_t r = 0;
      bool stop = false;
      for (std::uint64_t probed = 0; probed < groups && !stop; ++probed) {
        const GroupScan scan =
            ScanSwissGroup(view.meta + g * kSwissGroupSlots, h2);
        for (std::uint32_t m = scan.match_mask; m != 0; m &= m - 1) {
          const auto s = static_cast<unsigned>(__builtin_ctz(m));
          if (store_.KeyAt<K>(g, s) == key) {
            store_.SetVal<V>(g, s, vals[i]);
            r = 1;
            stop = true;
            break;
          }
        }
        if (!stop && scan.empty_mask != 0) stop = true;
        g = (g + 1) & mask;
      }
      if (batch.ok != nullptr) batch.ok[base + i] = r;
    }
  }
}

template <typename K, typename V>
bool SwissTable<K, V>::UpdateValue(K key, V val) {
  std::uint64_t g;
  unsigned s;
  if (!Locate(key, &g, &s)) return false;
  store_.SetVal<V>(g, s, val);
  return true;
}

template <typename K, typename V>
bool SwissTable<K, V>::Erase(K key) {
  std::uint64_t g;
  unsigned s;
  std::uint32_t empty_mask = 0;
  if (!Locate(key, &g, &s, &empty_mask)) return false;
  // Abseil deletion rule: EMPTY is only safe if no probe sequence can have
  // passed fully through this group — i.e. the group already holds another
  // EMPTY byte (the locating scan's empty mask). Otherwise the slot becomes
  // a TOMBSTONE that probes skip.
  store_.SetSlot<K, V>(g, s, static_cast<K>(kEmptyKey), V{0});
  store_.AdjustSize(-1);
  if (empty_mask != 0) {
    store_.SetCtrl(g * kSwissGroupSlots + s, kCtrlEmpty);
    return true;
  }
  store_.SetCtrl(g * kSwissGroupSlots + s, kCtrlTombstone);
  ++tombstones_;
  const std::uint64_t cap = capacity();
  if (cap - size() - tombstones_ < cap / kSwissEmptyFloorDivisor &&
      tombstones_ >= std::max<std::uint64_t>(
                         kSwissGroupSlots, cap / kSwissPurgeTombstoneDivisor)) {
    PurgeTombstones();
  }
  return true;
}

template <typename K, typename V>
void SwissTable<K, V>::PurgeTombstones() {
  std::uint8_t* ctrl = store_.mutable_meta_data();
  const std::uint64_t slots = capacity();
  const std::uint64_t mask = num_buckets() - 1;
  // 1. Every FULL byte becomes "unplaced" (TOMBSTONE), every old TOMBSTONE
  //    EMPTY. Both keep their sign bit, so the scan's free mask covers the
  //    slots still open to a key: EMPTY and unplaced.
  for (std::uint64_t i = 0; i < slots; ++i) {
    ctrl[i] = ctrl[i] < kCtrlEmpty ? kCtrlTombstone : kCtrlEmpty;
  }
  // 2. Re-place each unplaced key at the first free slot of its probe
  //    sequence. Groups before that slot are all placed (FULL) and stay so,
  //    which is the probe invariant.
  for (std::uint64_t i = 0; i < slots; ++i) {
    const std::uint64_t g = i / kSwissGroupSlots;
    const auto s = static_cast<unsigned>(i % kSwissGroupSlots);
    while (ctrl[i] == kCtrlTombstone) {
      const K key = store_.KeyAt<K>(g, s);
      const std::uint8_t h2 = store_.hash().H2<K>(key);
      // Slot i itself is free, so the walk stops at group g at the latest.
      std::uint64_t tg = HomeGroup(key);
      std::uint32_t free;
      while ((free = ScanSwissGroup(ctrl + tg * kSwissGroupSlots, h2)
                         .free_mask) == 0) {
        tg = (tg + 1) & mask;
      }
      const auto ts = static_cast<unsigned>(__builtin_ctz(free));
      const std::uint64_t t = tg * kSwissGroupSlots + ts;
      if (tg == g) {
        ctrl[i] = h2;  // lookups scan whole groups: the key stays
      } else if (ctrl[t] == kCtrlEmpty) {
        store_.SetSlot<K, V>(tg, ts, key, store_.ValAt<V>(g, s));
        store_.SetSlot<K, V>(g, s, static_cast<K>(kEmptyKey), V{0});
        ctrl[t] = h2;
        ctrl[i] = kCtrlEmpty;
      } else {
        // The target holds another unplaced key: swap the two, and process
        // slot i again for the key that arrived.
        const K other = store_.KeyAt<K>(tg, ts);
        const V other_val = store_.ValAt<V>(tg, ts);
        store_.SetSlot<K, V>(tg, ts, key, store_.ValAt<V>(g, s));
        store_.SetSlot<K, V>(g, s, other, other_val);
        ctrl[t] = h2;
      }
    }
  }
  // 3. The writes above bypassed SetCtrl.
  store_.RebuildMetaMirror();
  tombstones_ = 0;
  ++stats_.purges;
}

template class SwissTable<std::uint16_t, std::uint32_t>;
template class SwissTable<std::uint32_t, std::uint32_t>;
template class SwissTable<std::uint64_t, std::uint64_t>;

}  // namespace simdht
