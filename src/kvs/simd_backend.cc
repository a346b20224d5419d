#include "kvs/simd_backend.h"

#include <algorithm>
#include <stdexcept>

#include "hash/hash_family.h"
#include "ht/mutation.h"
#include "kvs/item.h"

namespace simdht {

SimdBackend::Config SimdBackend::BucketCuckooHorAvx2() {
  Config c;
  c.ways = 2;
  c.slots = 4;
  c.approach = Approach::kHorizontal;
  c.width_bits = 256;
  c.display_name = "Bucket-Cuckoo-Hor(AVX-256)";
  return c;
}

SimdBackend::Config SimdBackend::CuckooVerAvx512() {
  Config c;
  c.ways = 3;
  c.slots = 1;
  c.approach = Approach::kVertical;
  c.width_bits = 512;
  c.display_name = "Cuckoo-Ver(AVX-512)";
  return c;
}

SimdBackend::Config SimdBackend::ScalarBucketCuckoo() {
  Config c;
  c.ways = 2;
  c.slots = 4;
  c.approach = Approach::kScalar;
  c.width_bits = 0;
  c.display_name = "Bucket-Cuckoo-Scalar";
  return c;
}

SimdBackend::SimdBackend(const Config& config, std::uint64_t ht_entries,
                         std::size_t memory_limit)
    : name_(config.display_name), slab_(memory_limit) {
  if (config.shards == 0) {
    throw std::invalid_argument("SimdBackend: shards must be >= 1");
  }
  const std::uint64_t buckets = ht_entries / config.slots + 1;
  table_ = std::make_unique<ShardedTable32>(config.shards, config.ways,
                                            config.slots, buckets,
                                            BucketLayout::kInterleaved);
  const LayoutSpec& spec = table_->spec();
  if (config.approach == Approach::kScalar) {
    kernel_ = KernelRegistry::Get().Scalar(spec);
  } else {
    KernelQuery query;
    query.layout = spec;
    query.approach = config.approach;
    query.width_bits = config.width_bits;
    auto kernels = KernelRegistry::Get().Find(query);
    kernel_ = kernels.empty() ? nullptr : kernels.front();
  }
  if (kernel_ == nullptr) {
    throw std::runtime_error("SimdBackend: no kernel for " +
                             config.display_name + " on this CPU");
  }
  shard_hits_ = std::vector<std::atomic<std::uint64_t>>(config.shards);
  shard_misses_ = std::vector<std::atomic<std::uint64_t>>(config.shards);
  shard_stash_hits_ = std::vector<std::atomic<std::uint64_t>>(config.shards);
  pointer_array_.resize(table_->capacity() + 1, 0);  // index 0 reserved
  free_indices_.reserve(table_->capacity());
  for (std::uint32_t i = static_cast<std::uint32_t>(table_->capacity());
       i >= 1; --i) {
    free_indices_.push_back(i);
  }
}

std::uint32_t SimdBackend::HashKey32(std::string_view key,
                                     std::uint64_t h64) {
  (void)key;
  auto hk = static_cast<std::uint32_t>(h64 >> 32);
  return hk == 0 ? 1 : hk;  // key 0 is the table's empty sentinel
}

bool SimdBackend::EvictOne() {
  const std::uint64_t victim = lru_.PopEvictionCandidate();
  if (victim == 0) return false;
  const std::string_view vkey = ItemKey(victim);
  const std::uint64_t h64 = HashBytes(vkey.data(), vkey.size());
  const std::uint32_t hk = HashKey32(vkey, h64);
  std::uint32_t idx = 0;
  if (table_->Find(hk, &idx)) {
    table_->Erase(hk);
    pointer_array_[idx] = 0;
    free_indices_.push_back(idx);
  }
  slab_.Free(victim, ItemBytes(vkey.size(), ItemVal(victim).size()));
  return true;
}

bool SimdBackend::Set(std::string_view key, std::string_view val) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return SetLocked(key, val);
}

bool SimdBackend::SetLocked(std::string_view key, std::string_view val) {
  const std::uint64_t h64 = HashBytes(key.data(), key.size());
  const std::uint32_t hk = HashKey32(key, h64);

  std::uint32_t existing_idx = 0;
  const bool exists = table_->Find(hk, &existing_idx);
  if (exists) {
    const std::uint64_t old = pointer_array_[existing_idx];
    if (old != 0 && !ItemKeyEquals(old, key)) {
      // Two distinct keys collided on the 32-bit hash key: the index can
      // hold only one of them.
      ++hash_collisions_;
      return false;
    }
  }

  const std::size_t bytes = ItemBytes(key.size(), val.size());
  std::uint64_t item = 0;
  for (int attempt = 0; attempt < 3 && item == 0; ++attempt) {
    item = slab_.Alloc(bytes);
    if (item == 0 && !EvictOne()) return false;
  }
  if (item == 0) return false;
  WriteItem(reinterpret_cast<void*>(item), key, val);

  if (exists) {
    const std::uint64_t old = pointer_array_[existing_idx];
    pointer_array_[existing_idx] = item;
    lru_.OnInsert(item);
    if (old != 0) {
      lru_.Remove(old);
      slab_.Free(old, ItemBytes(key.size(), ItemVal(old).size()));
    }
    return true;
  }

  if (free_indices_.empty()) {
    slab_.Free(item, bytes);
    return false;
  }
  const std::uint32_t idx = free_indices_.back();
  if (!table_->Insert(hk, idx)) {
    slab_.Free(item, bytes);
    return false;  // cuckoo walk failed: index full
  }
  free_indices_.pop_back();
  pointer_array_[idx] = item;
  lru_.OnInsert(item);
  return true;
}

std::size_t SimdBackend::MultiSet(const std::vector<std::string_view>& keys,
                                  const std::vector<std::string_view>& vals,
                                  std::vector<std::uint8_t>* ok) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const std::size_t n = std::min(keys.size(), vals.size());
  if (ok != nullptr) ok->assign(keys.size(), 0);
  std::size_t stored = 0;

  std::vector<std::uint32_t> hash_keys(kMutationChunk);
  std::vector<std::uint32_t> probe_idx(kMutationChunk);
  std::vector<std::uint8_t> exists(kMutationChunk);
  // Fresh unique keys staged for one batched index insert.
  std::vector<std::uint32_t> pend_hk, pend_idx;
  std::vector<std::uint64_t> pend_item;
  std::vector<std::size_t> pend_pos;
  std::vector<std::uint8_t> pend_ok;
  // Keys routed through the scalar path after the batch: existing keys
  // (in-place replacement) and intra-chunk hash-key duplicates. Relative
  // order among keys sharing a hash key is preserved — an earlier fresh
  // occurrence lands in the batch, later ones re-probe and overwrite — so
  // the final state matches calling Set once per key in order.
  std::vector<std::size_t> slow_pos;

  for (std::size_t base = 0; base < n; base += kMutationChunk) {
    const std::size_t m = std::min(kMutationChunk, n - base);
    for (std::size_t i = 0; i < m; ++i) {
      const std::string_view key = keys[base + i];
      hash_keys[i] = HashKey32(key, HashBytes(key.data(), key.size()));
    }
    // Batched existence probe through the read kernel; keys absent now
    // stay absent for the rest of the chunk (only Set adds keys, and
    // duplicates of a staged key are deferred), so the verdict holds when
    // the batch insert runs.
    table_->BatchLookup(
        [this](const TableView& view, const std::uint32_t* k,
               std::uint32_t* v, std::uint8_t* f, std::size_t m2) {
          return kernel_->Lookup(
              view, ProbeBatch::Of(k, v, f, m2, kProbePrefetchDistance));
        },
        hash_keys.data(), probe_idx.data(), exists.data(), m);

    pend_hk.clear();
    pend_idx.clear();
    pend_item.clear();
    pend_pos.clear();
    slow_pos.clear();
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t pos = base + i;
      if (exists[i] != 0 ||
          std::find(pend_hk.begin(), pend_hk.end(), hash_keys[i]) !=
              pend_hk.end()) {
        slow_pos.push_back(pos);
        continue;
      }
      const std::size_t bytes = ItemBytes(keys[pos].size(), vals[pos].size());
      std::uint64_t item = 0;
      for (int attempt = 0; attempt < 3 && item == 0; ++attempt) {
        item = slab_.Alloc(bytes);
        if (item == 0 && !EvictOne()) break;
      }
      if (item == 0) continue;  // out of memory: ok[pos] stays 0
      WriteItem(reinterpret_cast<void*>(item), keys[pos], vals[pos]);
      if (free_indices_.empty()) {
        slab_.Free(item, bytes);
        continue;
      }
      pend_hk.push_back(hash_keys[i]);
      pend_idx.push_back(free_indices_.back());
      free_indices_.pop_back();
      pend_item.push_back(item);
      pend_pos.push_back(pos);
    }

    if (!pend_hk.empty()) {
      pend_ok.assign(pend_hk.size(), 0);
      table_->BatchInsert(MutationBatch<std::uint32_t, std::uint32_t>::Of(
          pend_hk.data(), pend_idx.data(), pend_ok.data(), pend_hk.size()));
      for (std::size_t j = 0; j < pend_hk.size(); ++j) {
        const std::size_t pos = pend_pos[j];
        if (pend_ok[j] != 0) {
          pointer_array_[pend_idx[j]] = pend_item[j];
          lru_.OnInsert(pend_item[j]);
          if (ok != nullptr) (*ok)[pos] = 1;
          ++stored;
        } else {
          // Cuckoo walk failed: index full for this key.
          slab_.Free(pend_item[j],
                     ItemBytes(keys[pos].size(), vals[pos].size()));
          free_indices_.push_back(pend_idx[j]);
        }
      }
    }

    for (std::size_t pos : slow_pos) {
      const bool r = SetLocked(keys[pos], vals[pos]);
      if (ok != nullptr) (*ok)[pos] = r ? 1 : 0;
      stored += r ? 1 : 0;
    }
  }
  return stored;
}

bool SimdBackend::Get(std::string_view key, std::string* val) {
  const std::uint64_t h64 = HashBytes(key.data(), key.size());
  const std::uint32_t hk = HashKey32(key, h64);
  std::uint32_t idx = 0;
  if (!table_->Find(hk, &idx)) return false;
  const std::uint64_t item = pointer_array_[idx];
  if (item == 0 || !ItemKeyEquals(item, key)) return false;
  ClockLru::OnAccess(item);
  if (val != nullptr) *val = std::string(ItemVal(item));
  return true;
}

std::size_t SimdBackend::MultiGet(const std::vector<std::string_view>& keys,
                                  std::vector<std::string_view>* vals,
                                  std::vector<std::uint8_t>* found,
                                  std::vector<std::uint64_t>* handles) {
  const std::size_t n = keys.size();
  vals->resize(n);
  found->resize(n);
  handles->resize(n);

  // Stage 1: derive the 32-bit hash keys (pre-processing work the paper
  // counts inside the lookup phase for all designs alike).
  std::vector<std::uint32_t> hash_keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    hash_keys[i] =
        HashKey32(keys[i], HashBytes(keys[i].data(), keys[i].size()));
  }

  // Stage 2: the SIMD (or scalar-twin) batched index lookup. Multi-Get
  // batches are the textbook case for hiding index-table DRAM latency: the
  // scalar twin and the horizontal kernels prefetch the candidate buckets
  // kProbePrefetchDistance keys ahead inside their compare loop (the
  // vertical kernels run direct). The sharded store partitions the
  // batch by shard and validates each shard's write epoch around the
  // kernel call; with one shard it is a pass-through.
  std::vector<std::uint32_t> indices(n);
  const std::uint64_t raw_hits = table_->BatchLookup(
      [this](const TableView& view, const std::uint32_t* k, std::uint32_t* v,
             std::uint8_t* f, std::size_t m) {
        return kernel_->Lookup(
            view, ProbeBatch::Of(k, v, f, m, kProbePrefetchDistance));
      },
      hash_keys.data(), indices.data(), found->data(), n);
  (void)raw_hits;

  // Stage 3: pointer dereference + full-key verification (the non-SIMD key
  // matching step Section VI-B identifies as the residual cost). Each hit
  // chases two dependent pointers (pointer-array entry, then the item
  // record); prefetch each level across the whole batch before touching it
  // so the misses overlap instead of serializing per key.
  for (std::size_t i = 0; i < n; ++i) {
    if ((*found)[i]) __builtin_prefetch(&pointer_array_[indices[i]], 0, 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t item = (*found)[i] ? pointer_array_[indices[i]] : 0;
    (*handles)[i] = item;
    if (item != 0) __builtin_prefetch(reinterpret_cast<const void*>(item), 0, 1);
  }
  const unsigned nshards = table_->num_shards();
  std::vector<std::uint64_t> tally(nshards * std::size_t{3}, 0);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t item = (*handles)[i];
    if (item != 0 && !ItemKeyEquals(item, keys[i])) {
      item = 0;  // tag/hash false positive
    }
    (*handles)[i] = item;
    const std::uint32_t s = ShardedTable32::ShardOf(hash_keys[i], nshards);
    if (item != 0) {
      (*vals)[i] = ItemVal(item);
      (*found)[i] = 1;
      ++hits;
      ++tally[s * 3];
      // Stash attribution: a hit whose hash key currently sits in the
      // shard's overflow stash was served by the stash post-pass, not a
      // bucket probe. Racy-read tolerant (monitoring only).
      const TableStore& store = table_->shard(s).store();
      const unsigned stash_n = store.stash_count();
      for (unsigned e = 0; e < stash_n; ++e) {
        if (store.stash_at(e).key == hash_keys[i]) {
          ++tally[s * 3 + 2];
          break;
        }
      }
    } else {
      (*vals)[i] = {};
      (*found)[i] = 0;
      ++tally[s * 3 + 1];
    }
  }
  for (unsigned s = 0; s < nshards; ++s) {
    if (tally[s * 3]) {
      shard_hits_[s].fetch_add(tally[s * 3], std::memory_order_relaxed);
    }
    if (tally[s * 3 + 1]) {
      shard_misses_[s].fetch_add(tally[s * 3 + 1],
                                 std::memory_order_relaxed);
    }
    if (tally[s * 3 + 2]) {
      shard_stash_hits_[s].fetch_add(tally[s * 3 + 2],
                                     std::memory_order_relaxed);
    }
  }
  return hits;
}

std::vector<ShardProbeCounters> SimdBackend::ShardProbeStats() const {
  std::vector<ShardProbeCounters> out(shard_hits_.size());
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s].hits = shard_hits_[s].load(std::memory_order_relaxed);
    out[s].misses = shard_misses_[s].load(std::memory_order_relaxed);
    out[s].stash_hits =
        shard_stash_hits_[s].load(std::memory_order_relaxed);
  }
  return out;
}

bool SimdBackend::Erase(std::string_view key) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const std::uint64_t h64 = HashBytes(key.data(), key.size());
  const std::uint32_t hk = HashKey32(key, h64);
  std::uint32_t idx = 0;
  if (!table_->Find(hk, &idx)) return false;
  const std::uint64_t item = pointer_array_[idx];
  if (item == 0 || !ItemKeyEquals(item, key)) return false;
  table_->Erase(hk);
  pointer_array_[idx] = 0;
  free_indices_.push_back(idx);
  lru_.Remove(item);
  slab_.Free(item, ItemBytes(key.size(), ItemVal(item).size()));
  return true;
}

}  // namespace simdht
