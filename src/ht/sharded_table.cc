#include "ht/sharded_table.h"

namespace simdht {

template <typename K, typename V>
ShardedTable<K, V>::ShardedTable(unsigned shards, unsigned ways,
                                 unsigned slots,
                                 std::uint64_t num_buckets_total,
                                 BucketLayout layout, std::uint64_t seed) {
  if (shards == 0) {
    throw std::invalid_argument("ShardedTable: shard count must be >= 1");
  }
  // Ceil-divide so the sharded table never has less total capacity than the
  // unsharded one the caller sized for.
  const std::uint64_t per_shard =
      (num_buckets_total + shards - 1) / shards;
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<ConcurrentCuckooTable<K, V>>(
        ways, slots, per_shard, layout, SeedForShard(seed, s)));
  }
}

template <typename K, typename V>
ShardedTable<K, V>::ShardedTable(std::vector<CuckooTable<K, V>>&& shard_tables,
                                 const std::vector<std::uint64_t>& shard_seeds) {
  if (shard_tables.empty()) {
    throw std::invalid_argument("ShardedTable: no shards to adopt");
  }
  if (shard_tables.size() != shard_seeds.size()) {
    throw std::invalid_argument(
        "ShardedTable: shard/seed count mismatch");
  }
  shards_.reserve(shard_tables.size());
  for (std::size_t s = 0; s < shard_tables.size(); ++s) {
    if (shard_tables[s].store().seed() != shard_seeds[s]) {
      throw std::invalid_argument(
          "ShardedTable: shard table does not carry its recorded seed");
    }
    shards_.push_back(std::make_unique<ConcurrentCuckooTable<K, V>>(
        std::move(shard_tables[s])));
  }
}

template class ShardedTable<std::uint16_t, std::uint32_t>;
template class ShardedTable<std::uint32_t, std::uint32_t>;
template class ShardedTable<std::uint64_t, std::uint64_t>;

}  // namespace simdht
