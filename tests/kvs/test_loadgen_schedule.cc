// Open-loop arrival schedule: determinism, rate, and the memslap driver's
// open-loop mode (latency measured from intended send times).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/stats.h"
#include "kvs/loadgen.h"
#include "kvs/memc3_backend.h"

namespace simdht {
namespace {

// The load generator against one simulated server over `backend`.
LoadgenResult RunOnSimServer(KvBackend* backend, const LoadgenConfig& config,
                             const WireModel& wire) {
  SimCluster sim({backend}, config.clients, wire);
  LoadgenResult result;
  std::string err;
  EXPECT_TRUE(RunLoadgen(config, sim.links(), &result, &err)) << err;
  return result;
}

TEST(ArrivalSchedule, UniformGapsAreExact) {
  const auto s =
      BuildArrivalSchedule(ArrivalMode::kUniform, 1000.0, 100, 7);
  ASSERT_EQ(s.size(), 100u);
  EXPECT_EQ(s[0], 0u);
  for (std::size_t i = 1; i < s.size(); ++i) {
    // 1000 QPS -> exactly 1 ms between intended sends.
    EXPECT_EQ(s[i] - s[i - 1], 1000000u) << i;
  }
}

TEST(ArrivalSchedule, SameSeedSameSchedule) {
  for (const ArrivalMode mode :
       {ArrivalMode::kUniform, ArrivalMode::kPoisson}) {
    const auto a = BuildArrivalSchedule(mode, 12345.0, 500, 99);
    const auto b = BuildArrivalSchedule(mode, 12345.0, 500, 99);
    EXPECT_EQ(a, b) << ArrivalModeName(mode);
  }
}

TEST(ArrivalSchedule, DifferentSeedsDifferentPoissonSchedules) {
  const auto a = BuildArrivalSchedule(ArrivalMode::kPoisson, 5000.0, 200, 1);
  const auto b = BuildArrivalSchedule(ArrivalMode::kPoisson, 5000.0, 200, 2);
  EXPECT_NE(a, b);
  // Uniform schedules ignore the seed entirely.
  const auto u1 = BuildArrivalSchedule(ArrivalMode::kUniform, 5000.0, 200, 1);
  const auto u2 = BuildArrivalSchedule(ArrivalMode::kUniform, 5000.0, 200, 2);
  EXPECT_EQ(u1, u2);
}

TEST(ArrivalSchedule, PoissonMeanGapMatchesRate) {
  const double qps = 20000.0;
  const std::size_t n = 20000;
  const auto s = BuildArrivalSchedule(ArrivalMode::kPoisson, qps, n, 42);
  ASSERT_EQ(s.size(), n);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  // Mean inter-arrival gap over 20k draws: within 3% of 1/qps.
  const double mean_gap_ns =
      static_cast<double>(s.back() - s.front()) / static_cast<double>(n - 1);
  EXPECT_NEAR(mean_gap_ns, 1e9 / qps, 1e9 / qps * 0.03);
}

TEST(ArrivalSchedule, PoissonGapsAreDispersed) {
  // Exponential gaps: coefficient of variation ~1 (uniform would be 0).
  const auto s = BuildArrivalSchedule(ArrivalMode::kPoisson, 1e6, 5000, 3);
  RunningStat gaps;
  for (std::size_t i = 1; i < s.size(); ++i) {
    gaps.Add(static_cast<double>(s[i] - s[i - 1]));
  }
  EXPECT_GT(gaps.cv(), 0.8);
  EXPECT_LT(gaps.cv(), 1.2);
}

TEST(ArrivalSchedule, ClosedLoopAndDegenerateInputsAreEmpty) {
  EXPECT_TRUE(
      BuildArrivalSchedule(ArrivalMode::kClosedLoop, 1000.0, 10, 1).empty());
  EXPECT_TRUE(
      BuildArrivalSchedule(ArrivalMode::kUniform, 0.0, 10, 1).empty());
  EXPECT_TRUE(
      BuildArrivalSchedule(ArrivalMode::kPoisson, 1000.0, 0, 1).empty());
}

TEST(ArrivalMode, ParseAndName) {
  ArrivalMode mode;
  ASSERT_TRUE(ParseArrivalMode("closed", &mode));
  EXPECT_EQ(mode, ArrivalMode::kClosedLoop);
  ASSERT_TRUE(ParseArrivalMode("uniform", &mode));
  EXPECT_EQ(mode, ArrivalMode::kUniform);
  ASSERT_TRUE(ParseArrivalMode("poisson", &mode));
  EXPECT_EQ(mode, ArrivalMode::kPoisson);
  EXPECT_FALSE(ParseArrivalMode("bursty", &mode));
  EXPECT_STREQ(ArrivalModeName(ArrivalMode::kPoisson), "poisson");
}

TEST(Memslap, OpenLoopModeRunsAtTargetRate) {
  Memc3Backend backend(1 << 12, 16 << 20);
  LoadgenConfig config;
  config.clients = 2;
  config.num_keys = 1000;
  config.mget_size = 16;
  config.requests_per_client = 200;
  config.arrival = ArrivalMode::kUniform;
  config.target_qps = 2000;  // 400 requests at 2 kQPS -> ~0.2 s run

  const LoadgenResult r =
      RunOnSimServer(&backend, config, WireModel::Loopback());
  ASSERT_EQ(r.server_stats.size(), 1u);
  EXPECT_EQ(FindStat(r.server_stats[0], "batches"), 400.0);
  EXPECT_DOUBLE_EQ(r.intended_qps, 2000.0);
  // The achieved rate tracks the schedule, not the backend (a loopback
  // server left to run closed-loop would be ~100x over target) — so the
  // upper bound is the real open-loop invariant. The floor only catches
  // a generator that stopped pacing entirely; it is deliberately loose
  // because an oversubscribed CI machine (ctest -j) legitimately starves
  // this 0.2 s run well below the intended rate.
  EXPECT_GT(r.achieved_qps, 2000.0 * 0.1);
  EXPECT_LT(r.achieved_qps, 2000.0 * 1.5);
  // Tail fields are populated and ordered.
  EXPECT_GT(r.mget_p50_us, 0.0);
  EXPECT_LE(r.mget_p50_us, r.mget_p99_us);
  EXPECT_LE(r.mget_p99_us, r.mget_p999_us);
  EXPECT_LE(r.mget_p999_us, r.mget_p9999_us);
}

TEST(Memslap, ClosedLoopResultHasNoIntendedRate) {
  Memc3Backend backend(1 << 12, 16 << 20);
  LoadgenConfig config;
  config.clients = 1;
  config.num_keys = 500;
  config.mget_size = 16;
  config.requests_per_client = 50;

  const LoadgenResult r =
      RunOnSimServer(&backend, config, WireModel::Loopback());
  EXPECT_DOUBLE_EQ(r.intended_qps, 0.0);
  EXPECT_DOUBLE_EQ(r.max_send_lag_us, 0.0);
  EXPECT_LE(r.mget_p99_us, r.mget_p999_us);
}

}  // namespace
}  // namespace simdht
