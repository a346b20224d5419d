// Performance-engine integration tests (small sizes: correctness of the
// plumbing, not performance).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/cpu_features.h"
#include "core/case_runner.h"

namespace simdht {
namespace {

CaseSpec SmallSpec() {
  CaseSpec spec;
  spec.layout.ways = 2;
  spec.layout.slots = 4;
  spec.layout.key_bits = 32;
  spec.layout.val_bits = 32;
  spec.table_bytes = 64 << 10;
  spec.load_factor = 0.85;
  spec.hit_rate = 0.9;
  spec.run.threads = 2;
  spec.run.queries_per_thread = 1 << 14;
  spec.run.repeats = 2;
  return spec;
}

TEST(CaseRunner, ScalarOnlyRunProducesThroughput) {
  const CaseResult result = RunCase(SmallSpec(), {});
  ASSERT_EQ(result.kernels.size(), 1u);
  const MeasuredKernel& scalar = result.kernels[0];
  EXPECT_EQ(scalar.approach, Approach::kScalar);
  EXPECT_GT(scalar.mlps_per_core, 0.0);
  EXPECT_NEAR(scalar.hit_fraction, 0.9, 0.02);
  EXPECT_NEAR(result.achieved_load_factor, 0.85, 0.01);
  EXPECT_EQ(result.threads, 2u);
  EXPECT_EQ(result.Best(), nullptr);
}

TEST(CaseRunner, AutoRunMeasuresViableDesigns) {
  const CaseResult result = RunCaseAuto(SmallSpec());
  ASSERT_GE(result.kernels.size(), 1u);
  if (GetCpuFeatures().Supports(SimdLevel::kAvx2)) {
    ASSERT_GE(result.kernels.size(), 2u);
    const MeasuredKernel* best = result.Best();
    ASSERT_NE(best, nullptr);
    EXPECT_GT(best->mlps_per_core, 0.0);
    EXPECT_GT(best->speedup, 0.0);
    // Every measured kernel observes the same workload hit rate.
    for (const MeasuredKernel& k : result.kernels) {
      EXPECT_NEAR(k.hit_fraction, 0.9, 0.02) << k.name;
    }
  }
}

TEST(CaseRunner, DedicatedTablesPerCore) {
  CaseSpec spec = SmallSpec();
  spec.shared_table = false;
  const CaseResult result = RunCase(spec, {});
  EXPECT_GT(result.kernels[0].mlps_per_core, 0.0);
  EXPECT_NEAR(result.kernels[0].hit_fraction, 0.9, 0.02);
}

TEST(CaseRunner, VerticalLayoutAuto) {
  CaseSpec spec = SmallSpec();
  spec.layout.ways = 3;
  spec.layout.slots = 1;
  const CaseResult result = RunCaseAuto(spec);
  if (GetCpuFeatures().Supports(SimdLevel::kAvx2)) {
    bool saw_vertical = false;
    for (const MeasuredKernel& k : result.kernels) {
      if (k.approach == Approach::kVertical) saw_vertical = true;
    }
    EXPECT_TRUE(saw_vertical);
  }
}

TEST(CaseRunner, SwissFamilyAutoRun) {
  CaseSpec spec = SmallSpec();
  spec.layout = LayoutSpec::Swiss(32, 32);
  const CaseResult result = RunCaseAuto(spec);
  ASSERT_GE(result.kernels.size(), 2u);  // scalar twin + >= SSE
  for (const MeasuredKernel& k : result.kernels) {
    EXPECT_NE(k.name.find("Swiss"), std::string::npos) << k.name;
    EXPECT_NEAR(k.hit_fraction, 0.9, 0.02) << k.name;
  }
  EXPECT_NEAR(result.achieved_load_factor, 0.85, 0.01);
}

// A prefetch distance adds one "[d=N]" row right after each kernel's direct
// row (scalar twin included); the distance never changes what is found, so
// both rows see the same hits. Distances past the batch are legal.
TEST(CaseRunner, PrefetchDistanceAddsOneRowPerKernel) {
  for (const LayoutSpec& layout :
       {SmallSpec().layout, LayoutSpec::Swiss(32, 32)}) {
    CaseSpec spec = SmallSpec();
    spec.layout = layout;
    spec.run.prefetch_distance = 32;
    const CaseResult result = RunCaseAuto(spec);
    ASSERT_GE(result.kernels.size(), 2u) << layout.ToString();
    ASSERT_EQ(result.kernels.size() % 2, 0u) << layout.ToString();
    for (std::size_t i = 0; i < result.kernels.size(); i += 2) {
      const MeasuredKernel& direct = result.kernels[i];
      const MeasuredKernel& prefetched = result.kernels[i + 1];
      EXPECT_EQ(direct.name.find('['), std::string::npos) << direct.name;
      EXPECT_EQ(prefetched.name, direct.name + " [d=32]");
      EXPECT_EQ(prefetched.approach, direct.approach) << prefetched.name;
      EXPECT_GT(prefetched.mlps_per_core, 0.0) << prefetched.name;
      EXPECT_DOUBLE_EQ(prefetched.hit_fraction, direct.hit_fraction)
          << prefetched.name;
    }
  }

  CaseSpec spec = SmallSpec();
  spec.run.prefetch_distance = 4096;
  const CaseResult result = RunCaseAuto(spec);
  ASSERT_GE(result.kernels.size(), 2u);
  EXPECT_EQ(result.kernels[1].name, result.kernels[0].name + " [d=4096]");
  for (const MeasuredKernel& k : result.kernels) {
    EXPECT_NEAR(k.hit_fraction, 0.9, 0.02) << k.name;
  }
}

TEST(CaseRunner, SwissWyHashRun) {
  CaseSpec spec = SmallSpec();
  spec.layout = LayoutSpec::Swiss(32, 32);
  spec.run.hash_kind = HashKind::kWyHash;
  const CaseResult result = RunCase(spec, {});
  ASSERT_EQ(result.kernels.size(), 1u);
  EXPECT_NEAR(result.kernels[0].hit_fraction, 0.9, 0.02);
}

TEST(CaseRunner, RejectsWyHashForCuckoo) {
  CaseSpec spec = SmallSpec();
  spec.run.hash_kind = HashKind::kWyHash;
  EXPECT_THROW(RunCase(spec, {}), std::invalid_argument);
}

TEST(CaseRunner, RejectsShardedSwiss) {
  CaseSpec spec = SmallSpec();
  spec.layout = LayoutSpec::Swiss(32, 32);
  spec.run.shards = 2;
  EXPECT_THROW(RunCase(spec, {}), std::invalid_argument);
}

TEST(CaseRunner, RejectsInvalidLayout) {
  CaseSpec spec = SmallSpec();
  spec.layout.ways = 7;
  EXPECT_THROW(RunCase(spec, {}), std::invalid_argument);
}

TEST(CaseRunner, ShardedSharedTableRun) {
  CaseSpec spec = SmallSpec();
  spec.run.shards = 4;
  const CaseResult result = RunCase(spec, {});
  EXPECT_EQ(result.shards, 4u);
  EXPECT_GT(result.kernels[0].mlps_per_core, 0.0);
  EXPECT_NEAR(result.kernels[0].hit_fraction, 0.9, 0.02);
  EXPECT_NEAR(result.achieved_load_factor, 0.85, 0.02);
}

TEST(CaseRunner, ShardsRequireSharedTable) {
  CaseSpec spec = SmallSpec();
  spec.run.shards = 2;
  spec.shared_table = false;  // per-thread tables are already partitioned
  EXPECT_THROW(RunCase(spec, {}), std::invalid_argument);
}

TEST(BucketsForBytes, PowerOfTwoWithinBudget) {
  LayoutSpec layout;
  layout.ways = 2;
  layout.slots = 4;
  layout.key_bits = 32;
  layout.val_bits = 32;  // bucket = 32 B
  EXPECT_EQ(BucketsForBytes(layout, 1 << 20), (1u << 20) / 32);
  EXPECT_EQ(BucketsForBytes(layout, (1 << 20) + 5000), (1u << 20) / 32);
  EXPECT_EQ(BucketsForBytes(layout, 1), 2u);  // floor
}

TEST(CaseRunner, PerfDisabledByDefault) {
  const CaseResult result = RunCase(SmallSpec(), {});
  EXPECT_FALSE(result.kernels[0].perf_collected);
  EXPECT_FALSE(result.kernels[0].Derived().collected);
}

// Acceptance path: --perf with perf_event_open forced off must still yield
// cycles/lookup via the TSC estimate, clearly marked as estimated.
TEST(CaseRunner, PerfForcedFallbackEstimatesCycles) {
  setenv("SIMDHT_PERF_DISABLE", "1", 1);
  CaseSpec spec = SmallSpec();
  spec.run.perf.enabled = true;
  const CaseResult result = RunCase(spec, {});
  unsetenv("SIMDHT_PERF_DISABLE");

  const MeasuredKernel& scalar = result.kernels[0];
  ASSERT_TRUE(scalar.perf_collected);
  EXPECT_GT(scalar.perf_lookups, 0u);
  const DerivedPerf d = scalar.Derived();
  EXPECT_TRUE(d.collected);
  EXPECT_TRUE(d.estimated);
  EXPECT_GT(d.cycles_per_op, 0.0);
  EXPECT_LT(d.cycles_per_op, 1e7);    // sane per-lookup magnitude
  EXPECT_TRUE(std::isnan(d.ipc));     // no instruction counts in fallback
  // The formatter marks the estimate so tables show "~value".
  EXPECT_EQ(FormatPerfValue(d.cycles_per_op, d.estimated, 1)[0], '~');
}

TEST(CaseRunner, PerfRestrictedEventSet) {
  CaseSpec spec = SmallSpec();
  spec.run.perf.enabled = true;
  spec.run.perf.events = {PerfEvent::kCycles};
  const CaseResult result = RunCase(spec, {});
  const MeasuredKernel& scalar = result.kernels[0];
  // Hardware cycles or the TSC estimate — either way cycles exist.
  ASSERT_TRUE(scalar.perf_collected);
  EXPECT_TRUE(scalar.perf.Has(PerfEvent::kCycles));
  EXPECT_FALSE(scalar.perf.Has(PerfEvent::kInstructions));
}

TEST(CaseRunner, SampleMsCollectsPerWorkerSlices) {
  CaseSpec spec = SmallSpec();
  spec.run.sample_ms = 1;
  const CaseResult result = RunCase(spec, {});
  const MeasuredKernel& scalar = result.kernels[0];
  ASSERT_FALSE(scalar.slices.empty());
  for (const TimeSlice& slice : scalar.slices) {
    ASSERT_EQ(slice.per_worker_ops.size(), spec.run.threads);
  }
  // The final snapshot accounts for every measured lookup: repeats x
  // queries_per_thread per worker.
  const std::uint64_t expected =
      std::uint64_t{spec.run.repeats} * spec.run.queries_per_thread;
  for (unsigned w = 0; w < spec.run.threads; ++w) {
    EXPECT_EQ(scalar.slices.back().per_worker_ops[w], expected)
        << "worker " << w;
  }
}

TEST(CaseRunner, SampleMsZeroCollectsNothing) {
  const CaseResult result = RunCase(SmallSpec(), {});
  EXPECT_TRUE(result.kernels[0].slices.empty());
}

TEST(CaseRunner, ZipfPatternRuns) {
  CaseSpec spec = SmallSpec();
  spec.pattern = AccessPattern::kZipfian;
  const CaseResult result = RunCase(spec, {});
  EXPECT_GT(result.kernels[0].mlps_per_core, 0.0);
  EXPECT_NEAR(result.kernels[0].hit_fraction, 0.9, 0.02);
}

}  // namespace
}  // namespace simdht
