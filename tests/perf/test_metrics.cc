// MetricsRegistry / ThreadMetrics tests: registration semantics, per-thread
// slab isolation, and aggregation while writers run.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "perf/metrics.h"

namespace simdht {
namespace {

TEST(MetricsRegistry, RegistrationIsIdempotentPerKind) {
  MetricsRegistry registry;
  const MetricId a = registry.Counter("hits");
  const MetricId b = registry.Counter("hits");
  EXPECT_EQ(a, b);
  const MetricId g = registry.Gauge("depth");
  EXPECT_NE(a, g);
  EXPECT_EQ(registry.num_metrics(), 2u);

  // Same name, different kind: loud failure.
  EXPECT_THROW(registry.Gauge("hits"), std::invalid_argument);
  EXPECT_THROW(registry.Histogram("depth"), std::invalid_argument);
}

TEST(MetricsRegistry, CapacityBound) {
  MetricsRegistry registry;
  for (std::size_t i = 0; i < MetricsRegistry::kMaxMetrics; ++i) {
    registry.Counter("c" + std::to_string(i));
  }
  EXPECT_THROW(registry.Counter("one-too-many"), std::length_error);
}

TEST(MetricsRegistry, CountersSumAcrossThreads) {
  MetricsRegistry registry;
  const MetricId hits = registry.Counter("hits");
  const MetricId misses = registry.Counter("misses");

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ThreadMetrics* m = registry.Local();
      for (std::uint64_t i = 0; i < kPerThread; ++i) m->Add(hits, 1);
      m->Add(misses, 7);
    });
  }
  for (auto& t : threads) t.join();

  const MetricsSnapshot snap = registry.Aggregate();
  EXPECT_EQ(snap.counter("hits"), kThreads * kPerThread);
  EXPECT_EQ(snap.counter("misses"), kThreads * 7u);
  EXPECT_EQ(snap.counter("never-registered"), 0u);
}

TEST(MetricsRegistry, GaugesSumPerThreadLastValues) {
  MetricsRegistry registry;
  const MetricId depth = registry.Gauge("depth");
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      ThreadMetrics* m = registry.Local();
      m->Set(depth, 100);      // overwritten below: last write wins
      m->Set(depth, t + 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.Aggregate().gauges.at("depth"), 1u + 2u + 3u);
}

TEST(MetricsRegistry, HistogramsMergeAcrossThreads) {
  MetricsRegistry registry;
  const MetricId lat = registry.Histogram("latency_ns");
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      ThreadMetrics* m = registry.Local();
      for (std::uint64_t v = 1; v <= 1000; ++v) {
        m->Record(lat, t == 0 ? v : v * 100);
      }
    });
  }
  for (auto& t : threads) t.join();

  const MetricsSnapshot snap = registry.Aggregate();
  const Histogram& h = snap.histograms.at("latency_ns");
  EXPECT_EQ(h.count(), 2000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_GE(h.max(), 100000u * 95 / 100);  // log-bucket upper bound
  // Thread 0's samples all sit below thread 1's: the median splits them.
  EXPECT_LE(h.Percentile(40), 1100u);
  EXPECT_GE(h.Percentile(60), 90u * 100u);
}

TEST(MetricsRegistry, LateHistogramRegistrationReachesExistingSlabs) {
  MetricsRegistry registry;
  ThreadMetrics* m = registry.Local();  // slab exists before the metric
  const MetricId late = registry.Histogram("late");
  m->Record(late, 42);
  EXPECT_EQ(registry.Aggregate().histograms.at("late").count(), 1u);
}

TEST(MetricsRegistry, AggregateWhileWritersRun) {
  MetricsRegistry registry;
  const MetricId hits = registry.Counter("hits");
  const MetricId lat = registry.Histogram("lat");

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    ThreadMetrics* m = registry.Local();
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      m->Add(hits, 1);
      m->Record(lat, ++i % 1024);
    }
  });

  // Snapshot while the writer is running, not before it starts.
  while (registry.Aggregate().counter("hits") < 2) std::this_thread::yield();

  // Each aggregate must be internally consistent (histogram count never
  // torn, counters monotone across snapshots).
  std::uint64_t last_hits = 0;
  for (int round = 0; round < 50; ++round) {
    const MetricsSnapshot snap = registry.Aggregate();
    const std::uint64_t now = snap.counter("hits");
    EXPECT_GE(now, last_hits);
    const auto it = snap.histograms.find("lat");
    ASSERT_NE(it, snap.histograms.end());
    EXPECT_LE(it->second.count(), now + 1);
    // The busy writer's histogram is never left out: every sample recorded
    // before the previous snapshot read the counter is in this one (at most
    // one Record trails its counter bump), so once the counter is above
    // zero the histogram is not empty.
    EXPECT_GE(it->second.count() + 1, last_hits);
    if (last_hits > 1) {
      EXPECT_GT(it->second.count(), 0u);
    }
    last_hits = now;
  }
  stop.store(true);
  writer.join();
}

TEST(MetricsRegistry, DistinctRegistriesGetDistinctSlabs) {
  MetricsRegistry a;
  MetricsRegistry b;
  const MetricId ca = a.Counter("x");
  const MetricId cb = b.Counter("x");
  ThreadMetrics* ma = a.Local();
  ThreadMetrics* mb = b.Local();
  ASSERT_NE(ma, mb);
  ma->Add(ca, 5);
  mb->Add(cb, 9);
  EXPECT_EQ(a.Aggregate().counter("x"), 5u);
  EXPECT_EQ(b.Aggregate().counter("x"), 9u);
  // The TLS cache hands back the same slab on re-lookup.
  EXPECT_EQ(a.Local(), ma);
}

TEST(MetricsRegistry, SlabsSurviveThreadExit) {
  MetricsRegistry registry;
  const MetricId hits = registry.Counter("hits");
  std::thread worker([&] { registry.Local()->Add(hits, 123); });
  worker.join();
  EXPECT_EQ(registry.Aggregate().counter("hits"), 123u);
}

}  // namespace
}  // namespace simdht
