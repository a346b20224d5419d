#include "ht/table_builder.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/random.h"

namespace simdht {

namespace {

// Number of distinct non-zero keys in K's domain.
template <typename K>
std::uint64_t KeySpace() {
  if constexpr (sizeof(K) == 8) {
    return std::numeric_limits<std::uint64_t>::max();
  } else {
    return (std::uint64_t{1} << (sizeof(K) * 8)) - 1;
  }
}

template <typename K>
K RandomNonZeroKey(Xoshiro256* rng) {
  for (;;) {
    const auto k = static_cast<K>(rng->Next());
    if (k != static_cast<K>(kEmptyKey)) return k;
  }
}

}  // namespace

template <typename K>
std::vector<K> UniqueRandomKeys(std::size_t count, std::uint64_t seed,
                                const std::vector<K>* exclude) {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(count + (exclude != nullptr ? exclude->size() : 0));
  if (exclude != nullptr) {
    for (K k : *exclude) seen.insert(static_cast<std::uint64_t>(k));
  }
  const std::uint64_t space = KeySpace<K>();
  const std::uint64_t available =
      space > seen.size() ? space - seen.size() : 0;
  count = static_cast<std::size_t>(
      std::min<std::uint64_t>(count, available));

  std::vector<K> keys;
  keys.reserve(count);
  Xoshiro256 rng(seed);

  // For narrow key domains, rejection sampling degrades as the domain fills
  // up; enumerate-and-shuffle instead.
  if (space <= (1u << 16) && count * 2 >= available) {
    std::vector<K> pool;
    pool.reserve(available);
    for (std::uint64_t v = 1; v <= space; ++v) {
      if (!seen.count(v)) pool.push_back(static_cast<K>(v));
    }
    for (std::size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.NextBounded(i)]);
    }
    pool.resize(count);
    return pool;
  }

  while (keys.size() < count) {
    const K k = RandomNonZeroKey<K>(&rng);
    if (seen.insert(static_cast<std::uint64_t>(k)).second) {
      keys.push_back(k);
    }
  }
  return keys;
}

namespace {

// Fully-failed top-up rounds before the fill concedes the table is full.
// Two rounds: BFS placement is deterministic, so a round of fresh keys
// without a single landing almost always means saturation — the second is
// a cheap guard against a key draw that was merely unlucky.
constexpr unsigned kTopUpGiveUpRounds = 2;

// Shared fill discipline for plain and sharded tables: full first pass
// (no early abort), one retry pass over the failures, then fresh-key
// top-up until the target entry count is met or insertions stall.
//
// Every pass runs through the table's batched mutation engine — the fill is
// the write path's biggest in-repo consumer — in key order, so the result
// is bit-identical to the historical per-key Insert loop (table_io
// snapshots stay byte-stable across the engines).
template <typename K, typename V, typename Table>
BuildResult<K> FillImpl(Table* table, double target_lf, std::uint64_t seed) {
  BuildResult<K> result;
  const auto target =
      static_cast<std::uint64_t>(target_lf *
                                 static_cast<double>(table->capacity()));

  std::vector<V> vals;
  std::vector<std::uint8_t> ok;
  std::vector<K> landed;
  // Batch-inserts keys in order; appends successes to `landed`, failures to
  // `*failures` (when given), and counts failures into the result.
  const auto insert_batch = [&](const std::vector<K>& keys,
                                std::vector<K>* failures) {
    vals.resize(keys.size());
    ok.assign(keys.size(), 0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      vals[i] = DeriveVal<K, V>(keys[i]);
    }
    table->BatchInsert(MutationBatch<K, V>::Of(keys.data(), vals.data(),
                                               ok.data(), keys.size()));
    bool progressed = false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (ok[i] != 0) {
        landed.push_back(keys[i]);
        progressed = true;
      } else {
        if (failures != nullptr) failures->push_back(keys[i]);
        ++result.failed_inserts;
      }
    }
    return progressed;
  };

  std::vector<K> drawn = UniqueRandomKeys<K>(target, seed);
  landed.reserve(drawn.size());
  std::vector<K> retry;
  insert_batch(drawn, &retry);

  // Retry pass: placements made after a key failed can have opened an
  // eviction path for it.
  insert_batch(retry, nullptr);

  // Exact-target top-up: replace keys that never landed with fresh ones so
  // the fill reaches the requested entry count whenever the table can hold
  // it, not just when the original draw cooperated.
  std::uint64_t topup_seed = seed;
  unsigned stalled_rounds = 0;
  while (landed.size() < target && stalled_rounds < kTopUpGiveUpRounds) {
    const std::size_t want = target - landed.size();
    topup_seed = Mix64(topup_seed + 0x9E3779B97F4A7C15ULL);
    const std::vector<K> extra =
        UniqueRandomKeys<K>(want, topup_seed, &drawn);
    if (extra.empty()) break;  // key domain exhausted
    const bool progressed = insert_batch(extra, nullptr);
    drawn.insert(drawn.end(), extra.begin(), extra.end());
    stalled_rounds = progressed ? 0 : stalled_rounds + 1;
  }

  result.inserted_keys = std::move(landed);
  result.achieved_load_factor = table->load_factor();
  result.hit_capacity = result.inserted_keys.size() < target;
  return result;
}

}  // namespace

template <typename K, typename V>
BuildResult<K> FillToLoadFactor(CuckooTable<K, V>* table, double target_lf,
                                std::uint64_t seed) {
  return FillImpl<K, V>(table, target_lf, seed);
}

template <typename K, typename V>
BuildResult<K> FillToLoadFactor(ShardedTable<K, V>* table, double target_lf,
                                std::uint64_t seed) {
  return FillImpl<K, V>(table, target_lf, seed);
}

template <typename K, typename V>
BuildResult<K> FillToLoadFactor(SwissTable<K, V>* table, double target_lf,
                                std::uint64_t seed) {
  return FillImpl<K, V>(table, target_lf, seed);
}

template <typename K, typename V>
BuildResult<K> FillToSaturation(CuckooTable<K, V>* table,
                                std::uint64_t seed) {
  BuildResult<K> result;
  result.hit_capacity = true;
  std::vector<K> drawn;
  std::uint64_t round_seed = seed;
  for (;;) {
    // Enough keys to fill every remaining slot (buckets + stash) plus the
    // one that fails; in the common case a single round ends the process.
    const std::uint64_t cap =
        table->capacity() + table->store().stash_capacity();
    const std::uint64_t size = table->size();
    const std::size_t want =
        static_cast<std::size_t>(cap > size ? cap - size : 0) + 1;
    round_seed = Mix64(round_seed + 0x9E3779B97F4A7C15ULL);
    const std::vector<K> batch =
        UniqueRandomKeys<K>(want, round_seed, &drawn);
    if (batch.empty()) break;  // key domain exhausted before the table did
    bool failed = false;
    for (K k : batch) {
      drawn.push_back(k);
      if (table->Insert(k, DeriveVal<K, V>(k))) {
        result.inserted_keys.push_back(k);
      } else {
        ++result.failed_inserts;
        failed = true;
        break;
      }
    }
    if (failed) break;
  }
  result.achieved_load_factor = table->load_factor();
  return result;
}

template <typename K, typename V>
LoadFactorSpread MeasureMaxLoadFactorSpread(unsigned ways, unsigned slots,
                                            std::uint64_t num_buckets,
                                            BucketLayout layout,
                                            std::uint64_t seed,
                                            unsigned num_seeds) {
  LoadFactorSpread spread;
  if (num_seeds == 0) num_seeds = 1;
  spread.samples.reserve(num_seeds);
  for (unsigned i = 0; i < num_seeds; ++i) {
    // Vary both the table's hash family and the key draw per sample.
    std::uint64_t s = seed + 0x9E3779B97F4A7C15ULL * i;
    if (s == 0) s = 1;  // seed 0 selects the default family
    CuckooTable<K, V> table(ways, slots, num_buckets, layout, s);
    FillToSaturation(&table, Mix64(s) | 1);
    spread.samples.push_back(table.load_factor());
  }
  std::sort(spread.samples.begin(), spread.samples.end());
  spread.min = spread.samples.front();
  spread.max = spread.samples.back();
  const std::size_t n = spread.samples.size();
  spread.median = (n % 2) != 0
                      ? spread.samples[n / 2]
                      : 0.5 * (spread.samples[n / 2 - 1] +
                               spread.samples[n / 2]);
  return spread;
}

template <typename K, typename V>
double MeasureMaxLoadFactor(unsigned ways, unsigned slots,
                            std::uint64_t num_buckets, BucketLayout layout,
                            std::uint64_t seed) {
  return MeasureMaxLoadFactorSpread<K, V>(ways, slots, num_buckets, layout,
                                          seed, /*num_seeds=*/3)
      .median;
}

template std::vector<std::uint16_t> UniqueRandomKeys<std::uint16_t>(
    std::size_t, std::uint64_t, const std::vector<std::uint16_t>*);
template std::vector<std::uint32_t> UniqueRandomKeys<std::uint32_t>(
    std::size_t, std::uint64_t, const std::vector<std::uint32_t>*);
template std::vector<std::uint64_t> UniqueRandomKeys<std::uint64_t>(
    std::size_t, std::uint64_t, const std::vector<std::uint64_t>*);

template BuildResult<std::uint16_t> FillToLoadFactor(
    CuckooTable<std::uint16_t, std::uint32_t>*, double, std::uint64_t);
template BuildResult<std::uint32_t> FillToLoadFactor(
    CuckooTable<std::uint32_t, std::uint32_t>*, double, std::uint64_t);
template BuildResult<std::uint64_t> FillToLoadFactor(
    CuckooTable<std::uint64_t, std::uint64_t>*, double, std::uint64_t);

template BuildResult<std::uint16_t> FillToSaturation(
    CuckooTable<std::uint16_t, std::uint32_t>*, std::uint64_t);
template BuildResult<std::uint32_t> FillToSaturation(
    CuckooTable<std::uint32_t, std::uint32_t>*, std::uint64_t);
template BuildResult<std::uint64_t> FillToSaturation(
    CuckooTable<std::uint64_t, std::uint64_t>*, std::uint64_t);

template BuildResult<std::uint16_t> FillToLoadFactor(
    SwissTable<std::uint16_t, std::uint32_t>*, double, std::uint64_t);
template BuildResult<std::uint32_t> FillToLoadFactor(
    SwissTable<std::uint32_t, std::uint32_t>*, double, std::uint64_t);
template BuildResult<std::uint64_t> FillToLoadFactor(
    SwissTable<std::uint64_t, std::uint64_t>*, double, std::uint64_t);

template BuildResult<std::uint16_t> FillToLoadFactor(
    ShardedTable<std::uint16_t, std::uint32_t>*, double, std::uint64_t);
template BuildResult<std::uint32_t> FillToLoadFactor(
    ShardedTable<std::uint32_t, std::uint32_t>*, double, std::uint64_t);
template BuildResult<std::uint64_t> FillToLoadFactor(
    ShardedTable<std::uint64_t, std::uint64_t>*, double, std::uint64_t);

template LoadFactorSpread
MeasureMaxLoadFactorSpread<std::uint32_t, std::uint32_t>(
    unsigned, unsigned, std::uint64_t, BucketLayout, std::uint64_t,
    unsigned);
template LoadFactorSpread
MeasureMaxLoadFactorSpread<std::uint64_t, std::uint64_t>(
    unsigned, unsigned, std::uint64_t, BucketLayout, std::uint64_t,
    unsigned);

template double MeasureMaxLoadFactor<std::uint32_t, std::uint32_t>(
    unsigned, unsigned, std::uint64_t, BucketLayout, std::uint64_t);
template double MeasureMaxLoadFactor<std::uint64_t, std::uint64_t>(
    unsigned, unsigned, std::uint64_t, BucketLayout, std::uint64_t);

}  // namespace simdht
