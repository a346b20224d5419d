// Pipeline-vs-direct equivalence, plus unit coverage for the redesigned
// probe-batch API (ProbeBatch / ProbeBatchStats / KernelQuery /
// PipelineConfig).
//
// The prefetch pipeline only changes *when* candidate buckets are fetched,
// never what is compared — so for every registered kernel, on every table
// shape it supports, the group and AMAC paths must produce bit-identical
// vals/found (and the same hit count) as the direct path. Edge cases: n=0,
// n smaller than the group size, and 0%-hit-rate batches.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "core/workload.h"
#include "ht/cuckoo_table.h"
#include "ht/table_builder.h"
#include "simd/kernel.h"
#include "simd/pipeline.h"

namespace simdht {
namespace {

// Pipeline schedules under test: group sizes straddling the batch size,
// a degenerate group of 1, and AMAC windows both shallow and deep.
const PipelineConfig kConfigs[] = {
    {PrefetchPolicy::kGroup, 1, 1},  {PrefetchPolicy::kGroup, 5, 1},
    {PrefetchPolicy::kGroup, 32, 1}, {PrefetchPolicy::kGroup, 4096, 1},
    {PrefetchPolicy::kAmac, 7, 3},   {PrefetchPolicy::kAmac, 32, 4},
};

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

template <typename K, typename V>
void VerifyPipelineOnShape(const KernelInfo& kernel, const ShapeCase& shape,
                           BucketLayout layout, double hit_rate) {
  const LayoutSpec spec = CuckooSpec<K, V>(shape.ways, shape.slots, layout);
  if (!kernel.Matches(spec)) return;
  std::string why;
  ASSERT_TRUE(spec.Validate(&why)) << why;

  CuckooTable<K, V> table(shape.ways, shape.slots, shape.buckets, layout,
                          /*seed=*/shape.ways * 100 + shape.slots);
  auto build = FillToLoadFactor(&table, 0.85, /*seed=*/7);
  ASSERT_GT(build.inserted_keys.size(), 0u);
  auto miss_pool = UniqueRandomKeys<K>(1024, 55, &build.inserted_keys);

  WorkloadConfig wc;
  wc.pattern = AccessPattern::kUniform;
  wc.hit_rate = hit_rate;
  wc.num_queries = 4099;  // odd on purpose: exercises partial tail groups
  wc.seed = 13;
  auto queries = GenerateQueries(build.inserted_keys, miss_pool, wc);
  ASSERT_EQ(queries.size(), wc.num_queries);
  const TableView view = table.view();

  // Direct reference run.
  std::vector<V> direct_vals(queries.size(), V{0xAA});
  std::vector<std::uint8_t> direct_found(queries.size(), 0xAA);
  const std::uint64_t direct_hits = kernel.Lookup(
      view, ProbeBatch::Of(queries.data(), direct_vals.data(),
                           direct_found.data(), queries.size()));

  for (const PipelineConfig& config : kConfigs) {
    const std::string label =
        kernel.name + " [" + config.Describe() + "] hit_rate=" +
        std::to_string(hit_rate);
    // Poisoned output buffers: every byte must be (re)written identically.
    std::vector<V> vals(queries.size(), V{0x55});
    std::vector<std::uint8_t> found(queries.size(), 0x55);
    const std::uint64_t hits = PipelinedLookup(
        kernel, view,
        ProbeBatch::Of(queries.data(), vals.data(), found.data(),
                       queries.size()),
        config);
    EXPECT_EQ(hits, direct_hits) << label;
    ASSERT_EQ(std::memcmp(vals.data(), direct_vals.data(),
                          vals.size() * sizeof(V)),
              0)
        << label;
    ASSERT_EQ(std::memcmp(found.data(), direct_found.data(), found.size()),
              0)
        << label;

    // n = 0 and n < group_size must work (a sub-group batch becomes one
    // primed group; n = 0 short-circuits).
    EXPECT_EQ(PipelinedLookup(kernel, view,
                              ProbeBatch::Of<K, V>(queries.data(), nullptr,
                                                   nullptr, 0),
                              config),
              0u)
        << label;
    const std::size_t small = std::min<std::size_t>(3, queries.size());
    std::vector<V> small_vals(small);
    std::vector<std::uint8_t> small_found(small);
    const std::uint64_t small_hits = PipelinedLookup(
        kernel, view,
        ProbeBatch::Of(queries.data(), small_vals.data(), small_found.data(),
                       small),
        config);
    std::uint64_t small_direct = 0;
    for (std::size_t i = 0; i < small; ++i) small_direct += direct_found[i];
    EXPECT_EQ(small_hits, small_direct) << label;
  }
}

template <typename K, typename V>
void VerifyAllShapes(const KernelInfo& kernel, BucketLayout layout) {
  for (const ShapeCase& shape : kShapes) {
    // 0.7 = mixed batch; 0.0 = the all-miss batch the issue calls out.
    VerifyPipelineOnShape<K, V>(kernel, shape, layout, 0.7);
    VerifyPipelineOnShape<K, V>(kernel, shape, layout, 0.0);
  }
}

TEST(PrefetchPipeline, MatchesDirectPathForEveryKernel) {
  const CpuFeatures& cpu = GetCpuFeatures();
  for (const KernelInfo& kernel : KernelRegistry::Get().all()) {
    if (!cpu.Supports(kernel.level)) continue;
    if (kernel.key_bits == 16 && kernel.val_bits == 32) {
      VerifyAllShapes<std::uint16_t, std::uint32_t>(kernel,
                                                    kernel.bucket_layout);
    } else if (kernel.key_bits == 32 && kernel.val_bits == 32) {
      VerifyAllShapes<std::uint32_t, std::uint32_t>(kernel,
                                                    kernel.bucket_layout);
    } else if (kernel.key_bits == 64 && kernel.val_bits == 64) {
      VerifyAllShapes<std::uint64_t, std::uint64_t>(kernel,
                                                    kernel.bucket_layout);
    } else {
      ADD_FAILURE() << "untested (key, val) widths for " << kernel.name;
    }
  }
}

// Stats semantics per schedule: kernel_calls counts compare-loop passes (one
// per slice on the slice schedule, one per batch on a fused path) and
// prefetch_groups counts group_size-key prefetch windows.
TEST(PrefetchPipeline, StatsAccumulateAcrossGroups) {
  CuckooTable32 table(2, 4, 1 << 8, BucketLayout::kInterleaved, 1);
  auto build = FillToLoadFactor(&table, 0.8, 2);
  const KernelInfo* scalar = KernelRegistry::Get().Scalar(table.spec());
  ASSERT_NE(scalar, nullptr);
  const auto horizontal = KernelRegistry::Get().Find(
      KernelQuery{table.spec(), Approach::kHorizontal});
  ASSERT_FALSE(horizontal.empty());

  const std::size_t n = 100;
  std::vector<std::uint32_t> keys(build.inserted_keys.begin(),
                                  build.inserted_keys.begin() + n);
  std::vector<std::uint32_t> vals(n);
  std::vector<std::uint8_t> found(n);
  const PipelineConfig group{PrefetchPolicy::kGroup, 32, 1};
  const PipelineConfig amac{PrefetchPolicy::kAmac, 32, 4};

  struct Case {
    const char* what;
    const KernelInfo* kernel;
    PipelineConfig config;
    std::uint64_t kernel_calls;
    std::uint64_t prefetch_groups;
  };
  const Case cases[] = {
      // Slice schedule: ceil(100/32) = 4 slices, each prefetched once.
      {"scalar slices", scalar, group, 4, 4},
      // Fused scalar AMAC: one pass, windows of 4 x 32 keys.
      {"scalar fused amac", scalar, amac, 1, 1},
      // Horizontal kernels, both policies: one pass, prefetching 32 keys
      // ahead, so 4 windows of 32 keys.
      {"horizontal group", horizontal.front(), group, 1, 4},
      {"horizontal amac", horizontal.front(), amac, 1, 4},
  };
  for (const Case& c : cases) {
    ProbeBatchStats stats;
    const std::uint64_t hits = PipelinedLookup(
        *c.kernel, table.view(),
        ProbeBatch::Of(keys.data(), vals.data(), found.data(), n, &stats),
        c.config);
    EXPECT_EQ(hits, n) << c.what;  // all keys resident
    EXPECT_EQ(stats.lookups, n) << c.what;
    EXPECT_EQ(stats.hits, n) << c.what;
    EXPECT_EQ(stats.kernel_calls, c.kernel_calls) << c.what;
    EXPECT_EQ(stats.prefetch_groups, c.prefetch_groups) << c.what;

    // Counters accumulate: a second run doubles everything.
    PipelinedLookup(
        *c.kernel, table.view(),
        ProbeBatch::Of(keys.data(), vals.data(), found.data(), n, &stats),
        c.config);
    EXPECT_EQ(stats.lookups, 2 * n) << c.what;
    EXPECT_EQ(stats.hits, 2 * n) << c.what;
    EXPECT_EQ(stats.kernel_calls, 2 * c.kernel_calls) << c.what;
    EXPECT_EQ(stats.prefetch_groups, 2 * c.prefetch_groups) << c.what;
  }
}

// --- horizontal kernels: branch-free select + in-loop prefetch -------------
//
// The horizontal loop picks the matching bucket and slot arithmetically and
// masks the value to 0 on a miss (it still reads slot 0 of the first
// candidate). These cases target exactly that: hits that all sit in the
// second candidate bucket, misses whose first bucket holds a non-zero slot-0
// value, all-ones values, stash-resident keys, and batch lengths around the
// prefetch distance and the 64-key hash tile. Every horizontal kernel, under
// the direct path and every schedule, must match the scalar twin bit for bit.

// Horizontal probe shapes: pairs, one bucket per vector and chunked buckets
// all occur across the kernel widths for these (N, m).
const ShapeCase kSelectShapes[] = {
    {2, 2, 1 << 8}, {2, 4, 1 << 8}, {3, 4, 1 << 8},
    {4, 8, 1 << 6}, {2, 8, 1 << 6},
};

std::vector<std::size_t> BatchLengths(const PipelineConfig* config) {
  std::vector<std::size_t> lengths = {0, 1, 63, 64, 65, 129, 1000};
  if (config != nullptr) {
    lengths.push_back(config->group_size - 1);
    lengths.push_back(config->group_size + 1);
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

  std::vector<const PipelineConfig*> schedules = {nullptr};
  for (const PipelineConfig& config : kConfigs) schedules.push_back(&config);
  for (const PipelineConfig* config : schedules) {
    for (const std::size_t n : BatchLengths(config)) {
      const std::string label =
          what + " " + kernel.name + " [" +
          (config ? config->Describe() : std::string("direct")) +
          "] n=" + std::to_string(n);
      std::vector<V> ref_vals(n, V{0x55});
      std::vector<std::uint8_t> ref_found(n, 0x55);
      const std::uint64_t ref_hits = scalar->Lookup(
          view,
          ProbeBatch::Of(keys.data(), ref_vals.data(), ref_found.data(), n));
      std::vector<V> vals(n, V{0xAA});
      std::vector<std::uint8_t> found(n, 0xAA);
      const ProbeBatch batch =
          ProbeBatch::Of(keys.data(), vals.data(), found.data(), n);
      const std::uint64_t hits =
          config ? PipelinedLookup(kernel, view, batch, *config)
                 : kernel.Lookup(view, batch);
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
void VerifyStashThroughPipeline(const KernelInfo& kernel) {
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
  VerifyStashThroughPipeline<K, V>(kernel);
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

TEST(ProbeBatch, SliceOffsetsTypedSpans) {
  std::vector<std::uint64_t> keys(10), vals(10);
  std::vector<std::uint8_t> found(10);
  const ProbeBatch batch =
      ProbeBatch::Of(keys.data(), vals.data(), found.data(), keys.size());
  EXPECT_EQ(batch.key_bits, 64u);
  EXPECT_EQ(batch.val_bits, 64u);

  const ProbeBatch sub = batch.Slice(4, 3);
  EXPECT_EQ(sub.size, 3u);
  EXPECT_EQ(sub.keys_as<std::uint64_t>(), keys.data() + 4);
  EXPECT_EQ(sub.vals_as<std::uint64_t>(), vals.data() + 4);
  EXPECT_EQ(sub.found, found.data() + 4);

  // Null outputs (count-only probes) stay null through slicing.
  const ProbeBatch count_only =
      ProbeBatch::Of<std::uint64_t, std::uint64_t>(keys.data(), nullptr,
                                                   nullptr, keys.size());
  const ProbeBatch count_sub = count_only.Slice(2, 2);
  EXPECT_EQ(count_sub.vals, nullptr);
  EXPECT_EQ(count_sub.found, nullptr);
}

TEST(PipelineConfig, ParseAndDescribeRoundTrip) {
  PrefetchPolicy policy = PrefetchPolicy::kAmac;
  EXPECT_TRUE(ParsePrefetchPolicy("none", &policy));
  EXPECT_EQ(policy, PrefetchPolicy::kNone);
  EXPECT_TRUE(ParsePrefetchPolicy("group", &policy));
  EXPECT_EQ(policy, PrefetchPolicy::kGroup);
  EXPECT_TRUE(ParsePrefetchPolicy("amac", &policy));
  EXPECT_EQ(policy, PrefetchPolicy::kAmac);
  EXPECT_FALSE(ParsePrefetchPolicy("bogus", &policy));

  EXPECT_STREQ(PrefetchPolicyName(PrefetchPolicy::kGroup), "group");
  EXPECT_EQ((PipelineConfig{PrefetchPolicy::kNone, 32, 4}).Describe(),
            "direct");
  EXPECT_EQ((PipelineConfig{PrefetchPolicy::kGroup, 64, 4}).Describe(),
            "group:64");
  EXPECT_EQ((PipelineConfig{PrefetchPolicy::kAmac, 16, 8}).Describe(),
            "amac:8x16");

  std::string why;
  EXPECT_TRUE((PipelineConfig{PrefetchPolicy::kGroup, 32, 4}).Validate(&why));
  EXPECT_FALSE((PipelineConfig{PrefetchPolicy::kGroup, 0, 4}).Validate(&why));
  EXPECT_FALSE((PipelineConfig{PrefetchPolicy::kAmac, 32, 0}).Validate(&why));
}

}  // namespace
}  // namespace simdht
