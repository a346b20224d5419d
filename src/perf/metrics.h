// Named metrics with lock-free per-thread slabs and reporter-side
// aggregation.
//
// Long-running components (the KVS server, future daemons) need counters and
// latency histograms that worker threads can write on the hot path without
// shared-cache-line contention. The registry hands each thread a private
// slab; counters/gauges are relaxed atomics the reporter reads live, each
// histogram sits behind its own lock (uncontended: only its thread records
// into it, the reporter takes it once per Aggregate()), and Aggregate()
// folds all slabs into one snapshot.
//
//   MetricsRegistry registry;
//   MetricId hits = registry.Counter("kvs.hits");
//   MetricId lat  = registry.Histogram("kvs.lookup_ns");
//   // worker thread:
//   ThreadMetrics* m = registry.Local();
//   m->Add(hits, 1);
//   m->Record(lat, nanos);
//   // reporter thread:
//   MetricsSnapshot snap = registry.Aggregate();
//
// Register all metrics before spawning writers (registration is cheap but
// takes the registry lock; hot-path writes never do). Slabs are owned by the
// registry and survive thread exit, so counts from finished workers stay in
// the aggregate.
#ifndef SIMDHT_PERF_METRICS_H_
#define SIMDHT_PERF_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace simdht {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

using MetricId = std::uint32_t;

// One thread's private slab. Obtained via MetricsRegistry::Local(); valid
// for the registry's lifetime. Counter and gauge writes are wait-free.
class ThreadMetrics {
 public:
  // Counter: monotonic accumulate.
  void Add(MetricId id, std::uint64_t delta) {
    cells_[id].fetch_add(delta, std::memory_order_relaxed);
  }

  // Gauge: last-written value wins (per thread; Aggregate sums threads).
  void Set(MetricId id, std::uint64_t value) {
    cells_[id].store(value, std::memory_order_relaxed);
  }

  // Histogram sample, under the cell's lock so a concurrent Aggregate()
  // copies a whole histogram. The serving paths record a few samples per
  // batch, so the (uncontended) lock is off every per-key loop.
  void Record(MetricId id, std::uint64_t value) {
    HistCell& cell = *hists_[id];
    std::lock_guard<std::mutex> lock(cell.mu);
    cell.hist.Add(value);
  }

 private:
  friend class MetricsRegistry;

  struct HistCell {
    std::mutex mu;
    Histogram hist;
  };

  explicit ThreadMetrics(std::size_t num_metrics);

  std::vector<std::atomic<std::uint64_t>> cells_;      // counters + gauges
  std::vector<std::unique_ptr<HistCell>> hists_;       // histogram metrics
};

// Aggregated view across all slabs at one point in time.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;  // summed over threads
  std::map<std::string, std::uint64_t> gauges;    // summed over threads
  std::map<std::string, Histogram> histograms;    // merged over threads

  // 0 for absent names, so reporters can read optimistically.
  std::uint64_t counter(const std::string& name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers (or finds, when already registered with the same kind) a
  // metric. Throws std::invalid_argument when the name exists with a
  // different kind, std::length_error past kMaxMetrics.
  MetricId Counter(const std::string& name);
  MetricId Gauge(const std::string& name);
  MetricId Histogram(const std::string& name);

  // The calling thread's slab for this registry (created on first use;
  // cached in a thread-local afterwards, so the hot path is one TLS read).
  ThreadMetrics* Local();

  // Folds every thread's slab into one snapshot. Safe to call while writers
  // run. Histograms are read before counters and gauges, so a writer that
  // bumps a counter before recording the matching sample never shows more
  // samples than counts: every histogram count is at most its counter.
  MetricsSnapshot Aggregate() const;

  std::size_t num_metrics() const;

  // Slab capacity: ids are assigned sequentially below this bound.
  static constexpr std::size_t kMaxMetrics = 256;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
  };

  MetricId RegisterMetric(const std::string& name, MetricKind kind);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::vector<std::unique_ptr<ThreadMetrics>> slabs_;
  const std::uint64_t epoch_;  // distinguishes registries in the TLS cache
};

}  // namespace simdht

#endif  // SIMDHT_PERF_METRICS_H_
