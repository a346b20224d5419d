#include "ht/concurrent_table.h"

#include <algorithm>
#include <vector>

#include "hash/block_hash.h"

namespace simdht {

template <typename K, typename V>
ConcurrentCuckooTable<K, V>::ConcurrentCuckooTable(
    unsigned ways, unsigned slots, std::uint64_t num_buckets,
    BucketLayout layout, std::uint64_t seed)
    : table_(ways, slots, num_buckets, layout, seed) {}

template <typename K, typename V>
bool ConcurrentCuckooTable<K, V>::Locate(K key, std::uint64_t* bucket,
                                         unsigned* slot) const {
  const LayoutSpec& spec = table_.spec();
  for (unsigned way = 0; way < spec.ways; ++way) {
    const std::uint32_t b = table_.hash_family().template Bucket<K>(way, key);
    for (unsigned s = 0; s < spec.slots; ++s) {
      if (table_.KeyAt(b, s) == key) {
        *bucket = b;
        *slot = s;
        return true;
      }
    }
  }
  return false;
}

template <typename K, typename V>
bool ConcurrentCuckooTable<K, V>::Find(K key, V* val) const {
  if (key == static_cast<K>(kEmptyKey)) return false;
  const LayoutSpec& spec = table_.spec();
  const TableStore& st = store();

  for (;;) {
    // StashVersion doubles as the rebuild generation: every rebuild
    // publication brackets itself with it, so it MUST be snapshotted
    // before the hash family is read. Reading the hash first loses: a
    // rebuild can complete in between, and the stripe versions — all even
    // again and only snapshotted afterwards — would validate a probe of
    // buckets computed from the dead hash family.
    const std::uint64_t stash_before =
        st.StashVersion().load(std::memory_order_acquire);
    bool writer_active = (stash_before & 1) != 0;

    // Candidate buckets are recomputed on every attempt: a rebuild
    // recovery can reseed the hash family mid-read.
    const HashFamily& hash = table_.hash_family();
    std::uint32_t buckets[kMaxWays];
    for (unsigned w = 0; w < spec.ways; ++w) {
      buckets[w] = hash.template Bucket<K>(w, key);
    }

    std::uint64_t before[kMaxWays];
    for (unsigned w = 0; w < spec.ways; ++w) {
      before[w] = st.StripeFor(buckets[w]).load(std::memory_order_acquire);
      writer_active |= (before[w] & 1) != 0;
    }
    if (writer_active) continue;

    V found_val{};
    bool found = false;
    for (unsigned w = 0; w < spec.ways && !found; ++w) {
      for (unsigned s = 0; s < spec.slots; ++s) {
        if (table_.KeyAt(buckets[w], s) == key) {
          found_val = table_.ValAt(buckets[w], s);
          found = true;
          break;
        }
      }
    }
    if (!found) {
      const unsigned stash_n = st.stash_count();
      for (unsigned i = 0; i < stash_n; ++i) {
        const StashEntry e = st.stash_at(i);
        if (e.key == static_cast<std::uint64_t>(key)) {
          found_val = static_cast<V>(e.val);
          found = true;
          break;
        }
      }
    }

    std::atomic_thread_fence(std::memory_order_acquire);
    bool stable = true;
    for (unsigned w = 0; w < spec.ways; ++w) {
      stable &= st.StripeFor(buckets[w]).load(std::memory_order_acquire) ==
                before[w];
    }
    stable &= st.StashVersion().load(std::memory_order_acquire) ==
              stash_before;
    if (stable) {
      if (found && val != nullptr) *val = found_val;
      return found;
    }
  }
}

template <typename K, typename V>
bool ConcurrentCuckooTable<K, V>::Insert(K key, V val) {
  if (key == static_cast<K>(kEmptyKey)) return false;
  std::lock_guard<std::mutex> lock(writer_mu_);
  return InsertLocked(key, val);
}

template <typename K, typename V>
bool ConcurrentCuckooTable<K, V>::InsertLocked(K key, V val) {
  TableStore& st = store();

  // Overwrite in place if present (buckets, then stash).
  {
    std::uint64_t b;
    unsigned s;
    if (Locate(key, &b, &s)) {
      st.EpochEnterWrite();
      st.BumpOdd(b);
      table_.WriteSlot(b, s, key, val);
      st.BumpEven(b);
      st.EpochExitWrite();
      return true;
    }
    const unsigned stash_n = st.stash_count();
    for (unsigned i = 0; i < stash_n; ++i) {
      if (st.stash_at(i).key == static_cast<std::uint64_t>(key)) {
        // Single aligned word store: readers observe old or new.
        st.StashSetVal(i, static_cast<std::uint64_t>(val));
        return true;
      }
    }
  }

  // A BFS chain can, rarely, visit the same slot twice (a bucket cycle);
  // the replay detects that via per-move validation and the whole attempt
  // restarts on the mutated-but-consistent table.
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int rc = InsertAttempt(key, val);
    if (rc >= 0) {
      if (rc != 0) return true;
      break;  // BFS found no path: fall through to stash / rebuild
    }
  }

  // No eviction path: spill to the overflow stash. An append publishes the
  // entry before the count (release), so readers need no retry.
  if (st.StashAppend(static_cast<std::uint64_t>(key),
                     static_cast<std::uint64_t>(val))) {
    table_.AdjustSize(1);
    ++table_.mutable_insert_stats().stash_inserts;
    return true;
  }

  // Stash full too: rebuild into a staging table off to the side, then
  // publish by overwriting the live arena under the write epoch with every
  // stripe odd — readers that raced the copy retry and see only the fully
  // published table.
  std::optional<CuckooTable<K, V>> staging =
      table_.BuildRecoveryTable(key, val);
  if (staging) {
    st.EpochEnterWrite();
    st.BumpAllOdd();
    st.StashVersion().fetch_add(1, std::memory_order_acq_rel);
    table_.AdoptRebuilt(*staging);
    st.StashVersion().fetch_add(1, std::memory_order_release);
    st.BumpAllEven();
    st.EpochExitWrite();
    return true;
  }

  ++table_.mutable_insert_stats().failed_inserts;
  return false;
}

template <typename K, typename V>
int ConcurrentCuckooTable<K, V>::InsertAttempt(K key, V val) {
  const LayoutSpec& spec = table_.spec();
  const HashFamily& hash = table_.hash_family();
  TableStore& st = store();

  // Shortest eviction chain via the shared BFS engine (read-only; holding
  // the writer mutex means the search result is stale only if this very
  // replay aliases a slot, which the per-move validation below catches).
  if (!table_.FindInsertionPath(key, &path_)) return 0;

  // Replay the path back-to-front: move each evictee into the hole below
  // it, so every key is written to its destination before its source slot
  // is reused. Readers racing a move retry via the bumped stripes. Each
  // move is validated — if the chain aliased a slot (the occupant changed
  // under an earlier move of this very replay), abort; every completed
  // move left the table consistent, so the caller can simply retry.
  st.EpochEnterWrite();
  bool aborted = false;
  std::size_t applied_from = path_.size();  // first index whose move ran
  for (std::size_t i = path_.size(); i-- > 1;) {
    const PathStep& src = path_[i - 1];
    const PathStep& dst = path_[i];
    const K moved_key = table_.KeyAt(src.bucket, src.slot);
    const V moved_val = table_.ValAt(src.bucket, src.slot);

    bool valid = moved_key != static_cast<K>(kEmptyKey);
    if (valid) {
      valid = false;
      for (unsigned w = 0; w < spec.ways; ++w) {
        valid |= hash.template Bucket<K>(w, moved_key) == dst.bucket;
      }
    }
    if (!valid) {
      aborted = true;
      break;
    }

    st.BumpOdd(dst.bucket);
    st.BumpOdd(src.bucket);
    table_.WriteSlot(dst.bucket, dst.slot, moved_key, moved_val);
    table_.WriteSlot(src.bucket, src.slot, static_cast<K>(kEmptyKey), V{});
    st.BumpEven(src.bucket);
    st.BumpEven(dst.bucket);
    applied_from = i;
  }

  if (!aborted) {
    const PathStep& home = path_.front();
    st.BumpOdd(home.bucket);
    table_.WriteSlot(home.bucket, home.slot, key, val);
    st.BumpEven(home.bucket);
    table_.AdjustSize(1);
    InsertStats& stats = table_.mutable_insert_stats();
    if (path_.size() == 1) {
      ++stats.direct_inserts;
    } else {
      ++stats.path_inserts;
      stats.path_moves += path_.size() - applied_from;
    }
  }
  st.EpochExitWrite();
  return aborted ? -1 : 1;
}

template <typename K, typename V>
void ConcurrentCuckooTable<K, V>::BatchInsert(const MutationBatch<K, V>& batch) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  TableStore& st = store();
  const MutationKernel* kernel = table_.mutation_kernel();
  const unsigned ways = st.spec().ways;
  std::uint32_t buckets[kMutationChunk * kMaxWays];
  for (std::size_t base = 0; base < batch.size; base += kMutationChunk) {
    const std::size_t n = std::min(kMutationChunk, batch.size - base);
    const K* keys = batch.keys + base;
    const V* vals = batch.vals + base;
    std::uint64_t chunk_seed = st.seed();
    TableView view = st.view();
    BlockBuckets<K>(st.hash(), ways, keys, n, buckets);
    for (std::size_t i = 0; i < n; ++i) {
      for (unsigned w = 0; w < ways; ++w) {
        PrefetchBucketForWrite(view, buckets[i * ways + w]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const K key = keys[i];
      std::uint8_t r = 1;
      bool done = false;
      if (key == static_cast<K>(kEmptyKey)) {
        r = 0;
        done = true;
      }
      // A conflict-tail InsertLocked can publish a rebuild (new seed): the
      // chunk's remaining block-hashed candidates are stale — re-hash them.
      if (!done && st.seed() != chunk_seed) {
        chunk_seed = st.seed();
        view = st.view();
        BlockBuckets<K>(st.hash(), ways, keys + i, n - i, buckets + i * ways);
      }
      if (!done) {
        const auto key_w = static_cast<std::uint64_t>(key);
        int place_way = -1;
        int place_slot = -1;
        for (unsigned w = 0; w < ways; ++w) {
          const std::uint32_t b = buckets[i * ways + w];
          const BucketScan scan = kernel->bucket_scan(view, b, key_w);
          if (scan.match_slot >= 0) {
            // Duplicate overwrite: the same stripe + epoch bracket the
            // per-key Insert uses for an in-place rewrite.
            st.EpochEnterWrite();
            st.BumpOdd(b);
            table_.WriteSlot(b, static_cast<unsigned>(scan.match_slot), key,
                             vals[i]);
            st.BumpEven(b);
            st.EpochExitWrite();
            done = true;
            break;
          }
          if (place_way < 0 && scan.empty_slot >= 0) {
            place_way = static_cast<int>(w);
            place_slot = scan.empty_slot;
          }
        }
        if (!done) {
          const unsigned stash_n = st.stash_count();
          for (unsigned j = 0; j < stash_n; ++j) {
            if (st.stash_at(j).key == key_w) {
              // Single aligned word store: readers observe old or new.
              st.StashSetVal(j, static_cast<std::uint64_t>(vals[i]));
              done = true;
              break;
            }
          }
        }
        if (!done && place_way >= 0) {
          // Direct insert — a BFS path of length one, with its exact
          // publication order: epoch, stripe odd, slot write, stripe even,
          // size, stats, epoch exit.
          const std::uint32_t b = buckets[i * ways + place_way];
          st.EpochEnterWrite();
          st.BumpOdd(b);
          table_.WriteSlot(b, static_cast<unsigned>(place_slot), key, vals[i]);
          st.BumpEven(b);
          table_.AdjustSize(1);
          ++table_.mutable_insert_stats().direct_inserts;
          st.EpochExitWrite();
          done = true;
        }
        if (!done) {
          r = InsertLocked(key, vals[i]) ? 1 : 0;
        }
      }
      if (batch.ok != nullptr) batch.ok[base + i] = r;
    }
  }
}

template <typename K, typename V>
void ConcurrentCuckooTable<K, V>::BatchUpdate(const MutationBatch<K, V>& batch) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  TableStore& st = store();
  const MutationKernel* kernel = table_.mutation_kernel();
  const unsigned ways = st.spec().ways;
  std::uint32_t buckets[kMutationChunk * kMaxWays];
  for (std::size_t base = 0; base < batch.size; base += kMutationChunk) {
    const std::size_t n = std::min(kMutationChunk, batch.size - base);
    const K* keys = batch.keys + base;
    const V* vals = batch.vals + base;
    const TableView view = st.view();
    BlockBuckets<K>(st.hash(), ways, keys, n, buckets);
    for (std::size_t i = 0; i < n; ++i) {
      for (unsigned w = 0; w < ways; ++w) {
        PrefetchBucketForWrite(view, buckets[i * ways + w]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const K key = keys[i];
      std::uint8_t r = 0;
      if (key != static_cast<K>(kEmptyKey)) {
        const auto key_w = static_cast<std::uint64_t>(key);
        for (unsigned w = 0; w < ways && r == 0; ++w) {
          const std::uint32_t b = buckets[i * ways + w];
          const BucketScan scan = kernel->bucket_scan(view, b, key_w);
          if (scan.match_slot >= 0) {
            // Same stripe bump (no epoch) as the per-key UpdateValue.
            st.BumpOdd(b);
            table_.WriteSlot(b, static_cast<unsigned>(scan.match_slot), key,
                             vals[i]);
            st.BumpEven(b);
            r = 1;
          }
        }
        if (r == 0) {
          const unsigned stash_n = st.stash_count();
          for (unsigned j = 0; j < stash_n; ++j) {
            if (st.stash_at(j).key == key_w) {
              st.StashSetVal(j, static_cast<std::uint64_t>(vals[i]));
              r = 1;
              break;
            }
          }
        }
      }
      if (batch.ok != nullptr) batch.ok[base + i] = r;
    }
  }
}

template <typename K, typename V>
bool ConcurrentCuckooTable<K, V>::UpdateValue(K key, V val) {
  if (key == static_cast<K>(kEmptyKey)) return false;
  std::lock_guard<std::mutex> lock(writer_mu_);
  TableStore& st = store();
  std::uint64_t b;
  unsigned s;
  if (Locate(key, &b, &s)) {
    st.BumpOdd(b);
    table_.WriteSlot(b, s, key, val);
    st.BumpEven(b);
    return true;
  }
  const unsigned stash_n = st.stash_count();
  for (unsigned i = 0; i < stash_n; ++i) {
    if (st.stash_at(i).key == static_cast<std::uint64_t>(key)) {
      st.StashSetVal(i, static_cast<std::uint64_t>(val));
      return true;
    }
  }
  return false;
}

template <typename K, typename V>
bool ConcurrentCuckooTable<K, V>::Erase(K key) {
  if (key == static_cast<K>(kEmptyKey)) return false;
  std::lock_guard<std::mutex> lock(writer_mu_);
  TableStore& st = store();
  std::uint64_t b;
  unsigned s;
  if (Locate(key, &b, &s)) {
    st.EpochEnterWrite();
    st.BumpOdd(b);
    table_.WriteSlot(b, s, static_cast<K>(kEmptyKey), V{});
    st.BumpEven(b);
    table_.AdjustSize(-1);
    st.EpochExitWrite();
    return true;
  }
  const unsigned stash_n = st.stash_count();
  for (unsigned i = 0; i < stash_n; ++i) {
    if (st.stash_at(i).key == static_cast<std::uint64_t>(key)) {
      // Swap-remove mutates entry `i` in place: readers validate against
      // the stash seqlock (scalar Find) or the write epoch (batches).
      st.EpochEnterWrite();
      st.StashVersion().fetch_add(1, std::memory_order_acq_rel);
      st.StashRemoveAt(i);
      st.StashVersion().fetch_add(1, std::memory_order_release);
      table_.AdjustSize(-1);
      st.EpochExitWrite();
      return true;
    }
  }
  return false;
}

template class ConcurrentCuckooTable<std::uint16_t, std::uint32_t>;
template class ConcurrentCuckooTable<std::uint32_t, std::uint32_t>;
template class ConcurrentCuckooTable<std::uint64_t, std::uint64_t>;

}  // namespace simdht
