#include "perf/metrics.h"

#include <stdexcept>

namespace simdht {

namespace {

std::uint64_t NextRegistryEpoch() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// TLS cache: one slab pointer per live registry this thread has written to.
// The epoch guards against a registry being destroyed and another allocated
// at the same address.
struct SlabRef {
  const void* registry;
  std::uint64_t epoch;
  ThreadMetrics* slab;
};
thread_local std::vector<SlabRef> tls_slabs;

}  // namespace

ThreadMetrics::ThreadMetrics(std::size_t num_metrics)
    : cells_(MetricsRegistry::kMaxMetrics),
      hists_(MetricsRegistry::kMaxMetrics) {
  (void)num_metrics;  // slabs are always full-capacity; see header contract
  for (auto& c : cells_) c.store(0, std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

MetricsRegistry::MetricsRegistry() : epoch_(NextRegistryEpoch()) {}

MetricsRegistry::~MetricsRegistry() {
  // Invalidate this registry's TLS entries lazily: the epoch check in
  // Local() rejects stale entries, so nothing to do here.
}

MetricId MetricsRegistry::RegisterMetric(const std::string& name,
                                         MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  for (MetricId id = 0; id < entries_.size(); ++id) {
    if (entries_[id].name == name) {
      if (entries_[id].kind != kind) {
        throw std::invalid_argument("metric '" + name +
                                    "' already registered with another kind");
      }
      return id;
    }
  }
  if (entries_.size() >= kMaxMetrics) {
    throw std::length_error("MetricsRegistry: too many metrics");
  }
  const MetricId id = static_cast<MetricId>(entries_.size());
  entries_.push_back(Entry{name, kind});
  if (kind == MetricKind::kHistogram) {
    // Existing slabs get their histogram cell now so a writer that learns
    // the id after this call returns can Record() immediately.
    for (auto& slab : slabs_) {
      slab->hists_[id] = std::make_unique<ThreadMetrics::HistCell>();
    }
  }
  return id;
}

MetricId MetricsRegistry::Counter(const std::string& name) {
  return RegisterMetric(name, MetricKind::kCounter);
}

MetricId MetricsRegistry::Gauge(const std::string& name) {
  return RegisterMetric(name, MetricKind::kGauge);
}

MetricId MetricsRegistry::Histogram(const std::string& name) {
  return RegisterMetric(name, MetricKind::kHistogram);
}

ThreadMetrics* MetricsRegistry::Local() {
  for (const SlabRef& ref : tls_slabs) {
    if (ref.registry == this && ref.epoch == epoch_) return ref.slab;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Not make_unique: the constructor is private to this friend class.
  std::unique_ptr<ThreadMetrics> slab(new ThreadMetrics(entries_.size()));
  for (MetricId id = 0; id < entries_.size(); ++id) {
    if (entries_[id].kind == MetricKind::kHistogram) {
      slab->hists_[id] = std::make_unique<ThreadMetrics::HistCell>();
    }
  }
  ThreadMetrics* raw = slab.get();
  slabs_.push_back(std::move(slab));
  tls_slabs.push_back(SlabRef{this, epoch_, raw});
  return raw;
}

MetricsSnapshot MetricsRegistry::Aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  // Histograms first: see the ordering contract in the header.
  for (MetricId id = 0; id < entries_.size(); ++id) {
    if (entries_[id].kind != MetricKind::kHistogram) continue;
    simdht::Histogram merged;
    for (const auto& slab : slabs_) {
      ThreadMetrics::HistCell* cell = slab->hists_[id].get();
      if (cell == nullptr) continue;
      std::lock_guard<std::mutex> cell_lock(cell->mu);
      merged.Merge(cell->hist);
    }
    snap.histograms.emplace(entries_[id].name, std::move(merged));
  }
  for (MetricId id = 0; id < entries_.size(); ++id) {
    const Entry& entry = entries_[id];
    if (entry.kind == MetricKind::kHistogram) continue;
    std::uint64_t sum = 0;
    for (const auto& slab : slabs_) {
      sum += slab->cells_[id].load(std::memory_order_relaxed);
    }
    (entry.kind == MetricKind::kCounter ? snap.counters
                                        : snap.gauges)[entry.name] = sum;
  }
  return snap;
}

std::size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace simdht
