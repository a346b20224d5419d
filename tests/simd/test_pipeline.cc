// Prefetch-distance equivalence for every registered kernel.
//
// ProbeBatch::prefetch_distance only changes *when* candidate buckets are
// fetched, never what is compared — so for every registered kernel, cuckoo
// and Swiss, on every table shape it supports, each distance must produce
// bit-identical vals/found (and the same hit count) as the direct path
// (d = 0). Edge cases: n = 0, n smaller than the distance, 0%-hit-rate
// batches, and distances past the batch and the horizontal kernels' 64-key
// hash tile.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "core/workload.h"
#include "ht/cuckoo_table.h"
#include "ht/swiss_table.h"
#include "ht/table_builder.h"
#include "simd/kernel.h"

namespace simdht {
namespace {

// Distances under test: the direct path, a degenerate distance of 1, odd
// ones, the library's kProbePrefetchDistance and its neighbours, the
// horizontal hash tile, and one past every batch.
const unsigned kDistances[] = {0, 1, 5, 31, 32, 33, 64, 4096};

struct ShapeCase {
  unsigned ways;
  unsigned slots;
  std::uint64_t buckets;
};

const ShapeCase kShapes[] = {
    {2, 1, 1 << 10},
    {3, 1, 1 << 10},
    {2, 4, 1 << 8},
    {2, 8, 1 << 6},
};

template <typename K, typename V>
LayoutSpec CuckooSpec(unsigned ways, unsigned slots, BucketLayout layout) {
  LayoutSpec spec;
  spec.ways = ways;
  spec.slots = slots;
  spec.key_bits = sizeof(K) * 8;
  spec.val_bits = sizeof(V) * 8;
  spec.bucket_layout = layout;
  return spec;
}

// Every distance against the direct path for `kernel` over `view`, whose
// resident keys are `inserted`.
template <typename K, typename V>
void VerifyDistances(const KernelInfo& kernel, const TableView& view,
                     const std::vector<K>& inserted, double hit_rate,
                     const std::string& where) {
  ASSERT_GT(inserted.size(), 0u) << where;
  auto miss_pool = UniqueRandomKeys<K>(1024, 55, &inserted);

  WorkloadConfig wc;
  wc.pattern = AccessPattern::kUniform;
  wc.hit_rate = hit_rate;
  wc.num_queries = 4099;  // odd on purpose: exercises vector tails
  wc.seed = 13;
  auto queries = GenerateQueries(inserted, miss_pool, wc);
  ASSERT_EQ(queries.size(), wc.num_queries);

  // Direct reference run.
  std::vector<V> direct_vals(queries.size(), V{0xAA});
  std::vector<std::uint8_t> direct_found(queries.size(), 0xAA);
  const std::uint64_t direct_hits = kernel.Lookup(
      view, ProbeBatch::Of(queries.data(), direct_vals.data(),
                           direct_found.data(), queries.size()));

  for (const unsigned d : kDistances) {
    const std::string label = kernel.name + " [d=" + std::to_string(d) +
                              "] " + where +
                              " hit_rate=" + std::to_string(hit_rate);
    // Poisoned output buffers: every byte must be (re)written identically.
    std::vector<V> vals(queries.size(), V{0x55});
    std::vector<std::uint8_t> found(queries.size(), 0x55);
    const std::uint64_t hits = kernel.Lookup(
        view, ProbeBatch::Of(queries.data(), vals.data(), found.data(),
                             queries.size(), d));
    EXPECT_EQ(hits, direct_hits) << label;
    ASSERT_EQ(std::memcmp(vals.data(), direct_vals.data(),
                          vals.size() * sizeof(V)),
              0)
        << label;
    ASSERT_EQ(std::memcmp(found.data(), direct_found.data(), found.size()),
              0)
        << label;

    // n = 0 and n < d must work (the prefetches stop at the batch's end).
    EXPECT_EQ(kernel.Lookup(view, ProbeBatch::Of<K, V>(queries.data(),
                                                       nullptr, nullptr, 0,
                                                       d)),
              0u)
        << label;
    const std::size_t small = std::min<std::size_t>(3, queries.size());
    std::vector<V> small_vals(small);
    std::vector<std::uint8_t> small_found(small);
    const std::uint64_t small_hits = kernel.Lookup(
        view, ProbeBatch::Of(queries.data(), small_vals.data(),
                             small_found.data(), small, d));
    std::uint64_t small_direct = 0;
    for (std::size_t i = 0; i < small; ++i) small_direct += direct_found[i];
    EXPECT_EQ(small_hits, small_direct) << label;
  }
}

// Every cuckoo shape a cuckoo kernel matches, or Swiss tables of two sizes
// for a Swiss kernel; 0.7 = mixed batch, 0.0 = the all-miss batch. Returns
// false when no table matched the kernel.
template <typename K, typename V>
bool VerifyAllShapes(const KernelInfo& kernel) {
  bool matched = false;
  for (const double hit_rate : {0.7, 0.0}) {
    if (kernel.family == TableFamily::kSwiss) {
      for (const std::uint64_t groups : {64, 1024}) {
        SwissTable<K, V> table(groups, /*seed=*/groups);
        if (!kernel.Matches(table.spec())) continue;
        matched = true;
        const auto build = FillToLoadFactor(&table, 0.85, /*seed=*/7);
        VerifyDistances<K, V>(kernel, table.view(), build.inserted_keys,
                              hit_rate, table.spec().ToString());
      }
      continue;
    }
    for (const ShapeCase& shape : kShapes) {
      const LayoutSpec spec =
          CuckooSpec<K, V>(shape.ways, shape.slots, kernel.bucket_layout);
      if (!kernel.Matches(spec) || !spec.Validate()) continue;
      matched = true;
      CuckooTable<K, V> table(shape.ways, shape.slots, shape.buckets,
                              kernel.bucket_layout,
                              /*seed=*/shape.ways * 100 + shape.slots);
      const auto build = FillToLoadFactor(&table, 0.85, /*seed=*/7);
      VerifyDistances<K, V>(kernel, table.view(), build.inserted_keys,
                            hit_rate, spec.ToString());
    }
  }
  return matched;
}

TEST(PrefetchPipeline, MatchesDirectPathForEveryKernel) {
  const CpuFeatures& cpu = GetCpuFeatures();
  int cuckoo_tested = 0, swiss_tested = 0;
  for (const KernelInfo& kernel : KernelRegistry::Get().all()) {
    if (!cpu.Supports(kernel.level)) continue;
    bool matched = false;
    if (kernel.key_bits == 16 && kernel.val_bits == 32) {
      matched = VerifyAllShapes<std::uint16_t, std::uint32_t>(kernel);
    } else if (kernel.key_bits == 32 && kernel.val_bits == 32) {
      matched = VerifyAllShapes<std::uint32_t, std::uint32_t>(kernel);
    } else if (kernel.key_bits == 64 && kernel.val_bits == 64) {
      matched = VerifyAllShapes<std::uint64_t, std::uint64_t>(kernel);
    } else {
      ADD_FAILURE() << "untested (key, val) widths for " << kernel.name;
    }
    EXPECT_TRUE(matched) << "no table shape matched " << kernel.name;
    ++(kernel.family == TableFamily::kSwiss ? swiss_tested : cuckoo_tested);
  }
  EXPECT_GT(cuckoo_tested, 0);
  EXPECT_GT(swiss_tested, 0);
}

// --- horizontal kernels: branch-free select + in-loop prefetch -------------
//
// The horizontal loop picks the matching bucket and slot arithmetically and
// masks the value to 0 on a miss (it still reads slot 0 of the first
// candidate). These cases target exactly that: hits that all sit in the
// second candidate bucket, misses whose first bucket holds a non-zero slot-0
// value, all-ones values, stash-resident keys, and batch lengths around the
// prefetch distance and the 64-key hash tile. Every horizontal kernel, at
// every distance, must match the scalar twin's direct path bit for bit.

// Horizontal probe shapes: pairs, one bucket per vector and chunked buckets
// all occur across the kernel widths for these (N, m).
const ShapeCase kSelectShapes[] = {
    {2, 2, 1 << 8}, {2, 4, 1 << 8}, {3, 4, 1 << 8},
    {4, 8, 1 << 6}, {2, 8, 1 << 6},
};

std::vector<std::size_t> BatchLengths(unsigned prefetch_distance) {
  std::vector<std::size_t> lengths = {0, 1, 63, 64, 65, 129, 1000};
  if (prefetch_distance != 0) {
    lengths.push_back(prefetch_distance - 1);
    lengths.push_back(prefetch_distance + 1);
  }
  return lengths;
}

// Repeats `keys` up to at least `n` entries (lookups may repeat keys).
template <typename K>
std::vector<K> Cycle(const std::vector<K>& keys, std::size_t n) {
  std::vector<K> out;
  for (std::size_t i = 0; out.size() < n; ++i) {
    out.push_back(keys[i % keys.size()]);
  }
  return out;
}

template <typename K, typename V>
void ExpectMatchesScalar(const KernelInfo& kernel, const TableView& view,
                         const std::vector<K>& pool, const std::string& what) {
  ASSERT_FALSE(pool.empty()) << what;
  const KernelInfo* scalar = KernelRegistry::Get().Scalar(view.spec);
  ASSERT_NE(scalar, nullptr);
  const std::vector<K> keys = Cycle(pool, 4097);

  for (const unsigned d : kDistances) {
    for (const std::size_t n : BatchLengths(d)) {
      const std::string label = what + " " + kernel.name + " [d=" +
                                std::to_string(d) +
                                "] n=" + std::to_string(n);
      std::vector<V> ref_vals(n, V{0x55});
      std::vector<std::uint8_t> ref_found(n, 0x55);
      const std::uint64_t ref_hits = scalar->Lookup(
          view,
          ProbeBatch::Of(keys.data(), ref_vals.data(), ref_found.data(), n));
      std::vector<V> vals(n, V{0xAA});
      std::vector<std::uint8_t> found(n, 0xAA);
      const std::uint64_t hits = kernel.Lookup(
          view, ProbeBatch::Of(keys.data(), vals.data(), found.data(), n, d));
      EXPECT_EQ(hits, ref_hits) << label;
      ASSERT_EQ(vals, ref_vals) << label;
      ASSERT_EQ(found, ref_found) << label;
    }
  }
}

// Resident keys whose first candidate bucket does not hold them but whose
// second (a different bucket) does.
template <typename K, typename V>
std::vector<K> SecondBucketHits(const CuckooTable<K, V>& table,
                                const std::vector<K>& resident) {
  const TableView view = table.view();
  std::vector<K> out;
  for (const K key : resident) {
    const std::uint32_t b0 = view.hash.template Bucket<K>(0, key);
    const std::uint32_t b1 = view.hash.template Bucket<K>(1, key);
    if (b0 == b1) continue;
    bool in0 = false, in1 = false;
    for (unsigned s = 0; s < view.spec.slots; ++s) {
      in0 |= table.KeyAt(b0, s) == key;
      in1 |= table.KeyAt(b1, s) == key;
    }
    if (!in0 && in1) out.push_back(key);
  }
  return out;
}

// Absent keys whose first candidate bucket holds a key with a non-zero value
// in slot 0 — the slot a miss reads before masking.
template <typename K, typename V>
std::vector<K> MissesOverLiveSlotZero(const CuckooTable<K, V>& table,
                                      const std::vector<K>& resident) {
  const TableView view = table.view();
  std::vector<K> out;
  for (const K key : UniqueRandomKeys<K>(2048, 91, &resident)) {
    const std::uint32_t b0 = view.hash.template Bucket<K>(0, key);
    if (table.KeyAt(b0, 0) != K{0} && table.ValAt(b0, 0) != V{0}) {
      out.push_back(key);
    }
  }
  return out;
}

template <typename K, typename V>
void VerifySelectOnShape(const KernelInfo& kernel, const ShapeCase& shape) {
  const LayoutSpec spec =
      CuckooSpec<K, V>(shape.ways, shape.slots, kernel.bucket_layout);
  if (!kernel.Matches(spec) || !spec.Validate()) return;
  const std::string where = spec.ToString();

  CuckooTable<K, V> table(shape.ways, shape.slots, shape.buckets,
                          kernel.bucket_layout, shape.ways * 10 + shape.slots);
  const auto build = FillToLoadFactor(&table, 0.85, 5);
  ExpectMatchesScalar<K, V>(kernel, table.view(),
                            SecondBucketHits(table, build.inserted_keys),
                            where + " second-bucket hits");
  ExpectMatchesScalar<K, V>(kernel, table.view(),
                            MissesOverLiveSlotZero(table, build.inserted_keys),
                            where + " misses over live slot 0");

  // Every stored value all-ones; the batch interleaves hits and misses.
  CuckooTable<K, V> ones(shape.ways, shape.slots, shape.buckets,
                         kernel.bucket_layout, 3);
  const auto resident = UniqueRandomKeys<K>(
      shape.buckets * shape.slots * 3 / 4, 17);
  std::vector<K> mixed;
  const auto misses = UniqueRandomKeys<K>(resident.size(), 19, &resident);
  for (std::size_t i = 0; i < resident.size(); ++i) {
    if (ones.Insert(resident[i], static_cast<V>(~V{0}))) {
      mixed.push_back(resident[i]);
    }
    mixed.push_back(misses[i]);
  }
  ExpectMatchesScalar<K, V>(kernel, ones.view(), mixed,
                            where + " all-ones values");
}

template <typename K, typename V>
void VerifyStashAtEveryDistance(const KernelInfo& kernel) {
  const LayoutSpec spec = CuckooSpec<K, V>(2, 2, kernel.bucket_layout);
  if (!kernel.Matches(spec) || !spec.Validate()) return;

  // Saturated with rebuilds off: the last keys can only land in the stash.
  CuckooTable<K, V> table(2, 2, 64, kernel.bucket_layout, 29);
  table.set_rebuild_enabled(false);
  auto build = FillToSaturation(&table, 31);
  ASSERT_GT(table.stash_count(), 0u) << kernel.name;
  std::vector<K> keys;
  for (unsigned i = 0; i < table.stash_count(); ++i) {
    keys.push_back(static_cast<K>(table.store().stash_at(i).key));
  }
  const auto misses = UniqueRandomKeys<K>(64, 37, &build.inserted_keys);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    keys.push_back(build.inserted_keys[i]);
    keys.push_back(misses[i]);
  }
  ExpectMatchesScalar<K, V>(kernel, table.view(), keys, "stash-resident");
}

template <typename K, typename V>
void VerifyHorizontalSelect(const KernelInfo& kernel) {
  for (const ShapeCase& shape : kSelectShapes) {
    VerifySelectOnShape<K, V>(kernel, shape);
  }
  VerifyStashAtEveryDistance<K, V>(kernel);
}

TEST(HorizontalSelect, MatchesScalarTwinOnEdgeCases) {
  const CpuFeatures& cpu = GetCpuFeatures();
  int tested = 0;
  for (const KernelInfo& kernel : KernelRegistry::Get().all()) {
    if (kernel.family != TableFamily::kCuckoo ||
        kernel.approach != Approach::kHorizontal ||
        !cpu.Supports(kernel.level)) {
      continue;
    }
    ++tested;
    if (kernel.key_bits == 16 && kernel.val_bits == 32) {
      VerifyHorizontalSelect<std::uint16_t, std::uint32_t>(kernel);
    } else if (kernel.key_bits == 32 && kernel.val_bits == 32) {
      VerifyHorizontalSelect<std::uint32_t, std::uint32_t>(kernel);
    } else if (kernel.key_bits == 64 && kernel.val_bits == 64) {
      VerifyHorizontalSelect<std::uint64_t, std::uint64_t>(kernel);
    } else {
      ADD_FAILURE() << "untested (key, val) widths for " << kernel.name;
    }
  }
  if (tested == 0) GTEST_SKIP() << "no horizontal kernel runs on this CPU";
}

}  // namespace
}  // namespace simdht
