// Swiss kernel equivalence: every registered Swiss SIMD kernel must agree
// probe-for-probe with the scalar twin (Scalar/Swiss/*) — including over
// tombstoned tables, erased keys and tables smaller than one vector window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "core/workload.h"
#include "ht/swiss_table.h"
#include "ht/table_builder.h"
#include "simd/kernel.h"

namespace simdht {
namespace {

template <typename K, typename V>
std::vector<const KernelInfo*> SwissKernels() {
  const LayoutSpec spec = LayoutSpec::Swiss(sizeof(K) * 8, sizeof(V) * 8);
  std::vector<const KernelInfo*> out;
  for (const KernelInfo& k : KernelRegistry::Get().all()) {
    if (k.family != TableFamily::kSwiss) continue;
    if (!k.Matches(spec)) continue;
    if (!GetCpuFeatures().Supports(k.level)) continue;
    if (k.approach == Approach::kScalar) continue;
    out.push_back(&k);
  }
  return out;
}

// Runs `queries` through the scalar twin and every SIMD kernel; asserts
// identical (found, value) outputs.
template <typename K, typename V>
void ExpectAllKernelsAgree(const SwissTable<K, V>& table,
                           const std::vector<K>& queries) {
  const KernelInfo* scalar = KernelRegistry::Get().Scalar(table.spec());
  ASSERT_NE(scalar, nullptr);
  const TableView view = table.view();
  const std::size_t n = queries.size();
  std::vector<V> ref_vals(n), vals(n);
  std::vector<std::uint8_t> ref_found(n), found(n);
  const std::uint64_t ref_hits = scalar->Lookup(
      view, ProbeBatch::Of(queries.data(), ref_vals.data(),
                           ref_found.data(), n));
  const auto kernels = SwissKernels<K, V>();
  ASSERT_FALSE(kernels.empty());
  for (const KernelInfo* kernel : kernels) {
    std::fill(vals.begin(), vals.end(), V{0});
    std::fill(found.begin(), found.end(), std::uint8_t{0});
    const std::uint64_t hits = kernel->Lookup(
        view, ProbeBatch::Of(queries.data(), vals.data(), found.data(), n));
    EXPECT_EQ(hits, ref_hits) << kernel->name;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(found[i], ref_found[i])
          << kernel->name << " probe " << i << " key " << queries[i];
      if (found[i] != 0) {
        ASSERT_EQ(vals[i], ref_vals[i])
            << kernel->name << " probe " << i << " key " << queries[i];
      }
    }
  }
}

TEST(SwissKernels, RegisteredForAllCombosAndWidths) {
  // 3 key/value combos x {SSE, AVX2, AVX-512} (CPU-support-filtered out of
  // the count only where the host lacks the tier).
  EXPECT_GE((SwissKernels<std::uint32_t, std::uint32_t>().size()), 1u);
  EXPECT_GE((SwissKernels<std::uint64_t, std::uint64_t>().size()), 1u);
  EXPECT_GE((SwissKernels<std::uint16_t, std::uint32_t>().size()), 1u);
}

TEST(SwissKernels, MatchScalarOnMixedHitMissWorkload) {
  SwissTable32 table(512);
  auto build = FillToLoadFactor(&table, 0.85, 21);
  ASSERT_FALSE(build.inserted_keys.empty());
  auto misses =
      UniqueRandomKeys<std::uint32_t>(4096, 23, &build.inserted_keys);
  WorkloadConfig wc;
  wc.hit_rate = 0.8;
  wc.num_queries = 1 << 15;
  wc.seed = 29;
  ExpectAllKernelsAgree(table,
                        GenerateQueries(build.inserted_keys, misses, wc));
}

TEST(SwissKernels, MatchScalarAfterEraseChurn) {
  // Erase a third of the residents: the lane now mixes FULL, EMPTY and
  // TOMBSTONE bytes, and probes for erased keys must miss through
  // tombstones without stopping early.
  SwissTable32 table(256);
  auto build = FillToLoadFactor(&table, 0.9, 31);
  std::vector<std::uint32_t> erased, kept;
  for (std::size_t i = 0; i < build.inserted_keys.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(table.Erase(build.inserted_keys[i]));
      erased.push_back(build.inserted_keys[i]);
    } else {
      kept.push_back(build.inserted_keys[i]);
    }
  }
  // Query kept keys, erased keys, and never-inserted keys.
  std::vector<std::uint32_t> queries = kept;
  queries.insert(queries.end(), erased.begin(), erased.end());
  auto never = UniqueRandomKeys<std::uint32_t>(2048, 37,
                                               &build.inserted_keys);
  queries.insert(queries.end(), never.begin(), never.end());
  ExpectAllKernelsAgree(table, queries);

  // Reinsert over the tombstones and re-check.
  for (std::uint32_t key : erased) ASSERT_TRUE(table.Insert(key, key + 1));
  ExpectAllKernelsAgree(table, queries);
}

// FIFO churn until Erase has purged the lane several times; after each
// purge every kernel must agree with the scalar twin on live, erased and
// never-inserted keys. The 4-group table is no wider than one AVX-512
// window, so wide kernels read the mirror the purge rebuilt. Occupancy is
// 0.9, or lower where the table could not otherwise hold the purge's
// minimum of one group of tombstones besides the EMPTY floor.
TEST(SwissKernels, MatchScalarAfterPurge) {
  for (const std::uint64_t groups : {std::uint64_t{4}, std::uint64_t{64}}) {
    SCOPED_TRACE(std::to_string(groups) + " groups");
    SwissTable32 table(groups, /*seed=*/43, HashKind::kWyHash);
    const std::uint64_t cap = table.capacity();
    const std::uint64_t live =
        std::min(cap * 9 / 10, cap - 2 * kSwissGroupSlots);
    std::uint32_t lo = 1, hi = 1;  // live keys are [lo, hi)
    std::uint64_t purges = 0;
    while (purges < 3) {
      ASSERT_LT(hi, 1u << 20) << "no purge";
      ASSERT_TRUE(table.Insert(hi, hi * 5));
      ++hi;
      if (hi - lo <= live) continue;
      ASSERT_TRUE(table.Erase(lo++));
      if (table.insert_stats().purges == purges) continue;
      purges = table.insert_stats().purges;
      std::vector<std::uint32_t> queries;
      for (std::uint32_t k = lo; k < hi; ++k) queries.push_back(k);
      for (std::uint32_t k = lo > 256 ? lo - 256 : 1; k < lo; ++k) {
        queries.push_back(k);
      }
      for (std::uint32_t k = 1u << 30; k < (1u << 30) + 512; ++k) {
        queries.push_back(k);
      }
      ExpectAllKernelsAgree(table, queries);
    }
  }
}

TEST(SwissKernels, MatchScalarOnTinyTable) {
  // 2 groups = 32 slots: smaller than the 64-byte AVX-512 window, so wide
  // kernels read the cyclic mirror. Saturate to 100% load (no EMPTY byte
  // anywhere: probes for absent keys must terminate via the scan bound).
  SwissTable32 table(2);
  std::vector<std::uint32_t> present;
  for (std::uint32_t k = 1; present.size() < table.capacity(); ++k) {
    if (table.Insert(k, k * 7)) present.push_back(k);
    ASSERT_LT(k, 10000u);
  }
  std::vector<std::uint32_t> queries = present;
  for (std::uint32_t k = 50000; k < 50512; ++k) queries.push_back(k);
  ExpectAllKernelsAgree(table, queries);
}

TEST(SwissKernels, MatchScalarWithWyHashFamily) {
  SwissTable32 table(256, /*seed=*/17, HashKind::kWyHash);
  auto build = FillToLoadFactor(&table, 0.8, 41);
  auto misses =
      UniqueRandomKeys<std::uint32_t>(2048, 43, &build.inserted_keys);
  WorkloadConfig wc;
  wc.hit_rate = 0.7;
  wc.num_queries = 1 << 14;
  wc.seed = 47;
  ExpectAllKernelsAgree(table,
                        GenerateQueries(build.inserted_keys, misses, wc));
}

TEST(SwissKernels, MatchScalarFor64And16BitKeys) {
  SwissTable64 t64(256);
  auto b64 = FillToLoadFactor(&t64, 0.85, 51);
  auto m64 = UniqueRandomKeys<std::uint64_t>(2048, 53, &b64.inserted_keys);
  WorkloadConfig wc;
  wc.hit_rate = 0.75;
  wc.num_queries = 1 << 14;
  wc.seed = 57;
  ExpectAllKernelsAgree(t64, GenerateQueries(b64.inserted_keys, m64, wc));

  SwissTable16x32 t16(64);
  auto b16 = FillToLoadFactor(&t16, 0.85, 61);
  auto m16 = UniqueRandomKeys<std::uint16_t>(1024, 63, &b16.inserted_keys);
  wc.seed = 67;
  ExpectAllKernelsAgree(t16, GenerateQueries(b16.inserted_keys, m16, wc));
}

TEST(SwissKernels, StashFreeSemantics) {
  // The Swiss family has no overflow stash: the view must report zero stash
  // entries so KernelInfo::Lookup's stash pass is a no-op, and lookups are
  // exact without it.
  SwissTable32 table(64);
  for (std::uint32_t k = 1; k <= 500; ++k) ASSERT_TRUE(table.Insert(k, k));
  EXPECT_EQ(table.view().stash_count, 0u);
  EXPECT_EQ(table.store().stash_count(), 0u);
}

}  // namespace
}  // namespace simdht
