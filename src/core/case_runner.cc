#include "core/case_runner.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/barrier.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "ht/cuckoo_table.h"
#include "ht/table_builder.h"
#include "obs/timeline.h"

namespace simdht {

std::string PrefetchRowName(const std::string& kernel_name,
                            unsigned prefetch_distance) {
  return prefetch_distance == 0
             ? kernel_name
             : kernel_name + " [d=" + std::to_string(prefetch_distance) + "]";
}

const MeasuredKernel* CaseResult::Best() const {
  const MeasuredKernel* best = nullptr;
  for (const MeasuredKernel& k : kernels) {
    if (k.approach == Approach::kScalar) continue;
    if (best == nullptr || k.mlps_per_core > best->mlps_per_core) best = &k;
  }
  return best;
}

std::uint64_t BucketsForBytes(const LayoutSpec& layout,
                              std::uint64_t table_bytes) {
  const std::uint64_t ratio =
      std::max<std::uint64_t>(2, table_bytes / layout.bucket_bytes());
  // Largest power of two <= ratio.
  std::uint64_t b = 1;
  while (b * 2 <= ratio) b *= 2;
  return std::max<std::uint64_t>(2, b);
}

namespace {

// Measures one kernel over pre-generated per-thread query streams at
// `prefetch_distance` (0 = the direct path). With a non-null `sharded`
// table every chunk is partitioned by shard and the kernel runs per shard
// (views then index shards, not threads).
template <typename K, typename V>
MeasuredKernel MeasureKernel(const KernelInfo& kernel,
                             const std::vector<TableView>& views,
                             const std::vector<std::vector<K>>& queries,
                             const CaseSpec& spec, unsigned prefetch_distance,
                             ThreadPool* pool,
                             const ShardedTable<K, V>* sharded = nullptr) {
  const unsigned threads = static_cast<unsigned>(pool->size());
  MeasuredKernel result;
  result.name = PrefetchRowName(kernel.name, prefetch_distance);
  result.approach = kernel.approach;
  result.width_bits = kernel.width_bits;

  // Per-thread output buffers, reused across repetitions.
  std::vector<std::vector<V>> vals(threads);
  std::vector<std::vector<std::uint8_t>> found(threads);
  for (unsigned t = 0; t < threads; ++t) {
    vals[t].resize(spec.run.batch);
    found[t].resize(spec.run.batch);
  }

  // One chunk through the kernel: direct to a view, or partitioned across
  // the sharded table (which invokes this same kernel per shard slice).
  const bool use_shards = sharded != nullptr;
  const auto kernel_chunk = [&kernel, prefetch_distance](
                                const TableView& view, const K* k, V* v,
                                std::uint8_t* f,
                                std::size_t chunk) -> std::uint64_t {
    return kernel.Lookup(view,
                         ProbeBatch::Of(k, v, f, chunk, prefetch_distance));
  };
  const auto run_chunk = [&](std::size_t tid, const TableView& view,
                             const K* k, std::size_t chunk) -> std::uint64_t {
    if (use_shards) {
      return sharded->BatchLookup(kernel_chunk, k, vals[tid].data(),
                                  found[tid].data(), chunk);
    }
    return kernel_chunk(view, k, vals[tid].data(), found[tid].data(), chunk);
  };

  // Untimed warmup: one batch per thread primes caches and branch
  // predictors before measurement.
  {
    TimelineSpan warmup_span("bench", "warmup " + result.name);
    pool->RunOnAll([&](std::size_t tid) {
      const TableView& view =
          views[use_shards || views.size() == 1 ? 0 : tid];
      const std::vector<K>& q = queries[tid];
      const std::size_t chunk = std::min(spec.run.batch, q.size());
      const std::uint64_t warm_hits = run_chunk(tid, view, q.data(), chunk);
      DoNotOptimize(warm_hits);
    });
  }

  RunningStat per_core_mlps;
  double hit_fraction = 0.0;
  const bool collect_perf = spec.run.perf.enabled;
  const std::vector<PerfEvent>& perf_events = spec.run.perf.events.empty()
                                                  ? DefaultPerfEvents()
                                                  : spec.run.perf.events;

  // The slicer spans all repeats so the series shows the whole measurement
  // (counters are cumulative; rep boundaries appear as timeline spans).
  TimeSlicer slicer(threads, spec.run.sample_ms);
  slicer.Start();
  Timeline& timeline = Timeline::Global();

  for (unsigned rep = 0; rep < spec.run.repeats; ++rep) {
    SpinBarrier barrier(threads);
    std::vector<double> secs(threads, 0.0);
    std::vector<std::uint64_t> hits(threads, 0);
    std::vector<PerfSample> samples(collect_perf ? threads : 0);

    pool->RunOnAll([&](std::size_t tid) {
      const TableView& view =
          views[use_shards || views.size() == 1 ? 0 : tid];
      const std::vector<K>& q = queries[tid];
      std::atomic<std::uint64_t>* slice_cell =
          slicer.cell(static_cast<unsigned>(tid));
      // Counters must be opened on the measured thread itself
      // (self-monitoring), so the group lives inside the worker lambda.
      CounterGroup counters(collect_perf ? perf_events
                                         : std::vector<PerfEvent>{});
      barrier.Wait();
      if (collect_perf) counters.Start();
      const double span_start_us =
          timeline.enabled() ? timeline.NowUs() : 0.0;
      Timer timer;
      std::size_t off = 0;
      std::uint64_t thread_hits = 0;
      while (off < q.size()) {
        const std::size_t chunk = std::min(spec.run.batch, q.size() - off);
        thread_hits += run_chunk(tid, view, q.data() + off, chunk);
        off += chunk;
        if (slice_cell != nullptr) {
          slice_cell->fetch_add(chunk, std::memory_order_relaxed);
        }
      }
      secs[tid] = timer.ElapsedSeconds();
      if (timeline.enabled()) {
        timeline.RecordSpan(
            "bench", result.name + " rep" + std::to_string(rep),
            span_start_us, timeline.NowUs());
      }
      if (collect_perf) samples[tid] = counters.Stop();
      hits[tid] = thread_hits;
      DoNotOptimize(thread_hits);
    });

    double sum_mlps = 0.0;
    std::uint64_t total_hits = 0;
    std::uint64_t total_queries = 0;
    for (unsigned t = 0; t < threads; ++t) {
      const double lps =
          secs[t] > 0 ? static_cast<double>(queries[t].size()) / secs[t] : 0;
      sum_mlps += lps / 1e6;
      total_hits += hits[t];
      total_queries += queries[t].size();
      if (collect_perf) {
        result.perf.Accumulate(samples[t]);
        result.perf_lookups += queries[t].size();
      }
    }
    per_core_mlps.Add(sum_mlps / threads);
    hit_fraction = total_queries
                       ? static_cast<double>(total_hits) /
                             static_cast<double>(total_queries)
                       : 0.0;
  }
  result.slices = slicer.Stop();
  result.perf_collected = collect_perf && result.perf.valid_mask != 0;

  result.mlps_per_core = per_core_mlps.mean();
  result.stddev_mlps = per_core_mlps.stddev();
  result.hit_fraction = hit_fraction;
  return result;
}

template <typename K, typename V>
CaseResult RunCaseImpl(const CaseSpec& spec,
                       const std::vector<const KernelInfo*>& kernels) {
  CaseResult result;
  result.layout = spec.layout;
  const unsigned threads =
      spec.run.threads == 0 ? static_cast<unsigned>(HardwareThreads())
                            : spec.run.threads;
  result.threads = threads;

  const unsigned shards = spec.run.shards == 0 ? 1 : spec.run.shards;
  if (shards > 1 && !spec.shared_table) {
    throw std::invalid_argument(
        "RunCase: shards > 1 requires the shared-table mode (per-thread "
        "tables are already partitioned)");
  }
  const bool is_swiss = spec.layout.family == TableFamily::kSwiss;
  if (is_swiss && shards > 1) {
    throw std::invalid_argument(
        "RunCase: sharding is implemented for the cuckoo family only; the "
        "Swiss family requires run.shards == 1");
  }
  if (!is_swiss && spec.run.hash_kind != HashKind::kMultiplyShift) {
    throw std::invalid_argument(
        "RunCase: cuckoo layouts require the multiply-shift hash (vertical "
        "kernels vectorize it); wyhash is Swiss-family only");
  }
  result.shards = shards;

  const std::uint64_t num_buckets =
      BucketsForBytes(spec.layout, spec.table_bytes);

  // Build one shared table (optionally sharded) or one table per core.
  Timeline& timeline = Timeline::Global();
  const double build_start_us = timeline.enabled() ? timeline.NowUs() : 0.0;
  const unsigned num_tables = spec.shared_table ? 1 : threads;
  std::vector<std::unique_ptr<CuckooTable<K, V>>> tables;
  std::vector<std::unique_ptr<SwissTable<K, V>>> swiss_tables;
  std::unique_ptr<ShardedTable<K, V>> sharded;
  std::vector<TableView> views;
  std::vector<BuildResult<K>> builds;
  if (is_swiss) {
    for (unsigned t = 0; t < num_tables; ++t) {
      auto table = std::make_unique<SwissTable<K, V>>(
          num_buckets, spec.run.seed + t, spec.run.hash_kind);
      builds.push_back(FillToLoadFactor(table.get(), spec.load_factor,
                                        spec.run.seed + 1000 + t));
      views.push_back(table->view());
      swiss_tables.push_back(std::move(table));
    }
    result.achieved_load_factor = builds.front().achieved_load_factor;
    result.actual_table_bytes = swiss_tables.front()->table_bytes();
  } else if (shards > 1) {
    sharded = std::make_unique<ShardedTable<K, V>>(
        shards, spec.layout.ways, spec.layout.slots, num_buckets,
        spec.layout.bucket_layout, spec.run.seed);
    builds.push_back(FillToLoadFactor(sharded.get(), spec.load_factor,
                                      spec.run.seed + 1000));
    for (unsigned s = 0; s < shards; ++s) {
      views.push_back(sharded->shard(s).view());
    }
    result.achieved_load_factor = builds.front().achieved_load_factor;
    result.actual_table_bytes = sharded->table_bytes();
  } else {
    for (unsigned t = 0; t < num_tables; ++t) {
      auto table = std::make_unique<CuckooTable<K, V>>(
          spec.layout.ways, spec.layout.slots, num_buckets,
          spec.layout.bucket_layout, spec.run.seed + t);
      builds.push_back(FillToLoadFactor(table.get(), spec.load_factor,
                                        spec.run.seed + 1000 + t));
      views.push_back(table->view());
      tables.push_back(std::move(table));
    }
    result.achieved_load_factor = builds.front().achieved_load_factor;
    result.actual_table_bytes = tables.front()->table_bytes();
  }
  if (timeline.enabled()) {
    timeline.RecordSpan("bench", "table build " + spec.layout.ToString(),
                        build_start_us, timeline.NowUs());
  }

  // Miss pools disjoint from each table's contents.
  std::vector<std::vector<K>> miss_pools;
  for (unsigned t = 0; t < num_tables; ++t) {
    const std::size_t pool_size = std::max<std::size_t>(
        1024, builds[t].inserted_keys.size() / 8);
    miss_pools.push_back(UniqueRandomKeys<K>(pool_size, spec.run.seed + 77 + t,
                                             &builds[t].inserted_keys));
  }

  // Per-thread probe streams.
  std::vector<std::vector<K>> queries(threads);
  for (unsigned t = 0; t < threads; ++t) {
    const unsigned src = spec.shared_table ? 0 : t;
    WorkloadConfig wc;
    wc.pattern = spec.pattern;
    wc.hit_rate = spec.hit_rate;
    wc.zipf_s = spec.zipf_s;
    wc.num_queries = spec.run.queries_per_thread;
    wc.seed = spec.run.seed + 31 * (t + 1);
    queries[t] = GenerateQueries(builds[src].inserted_keys, miss_pools[src],
                                 wc);
    if (queries[t].empty()) {
      throw std::runtime_error("RunCase: workload generation failed");
    }
  }

  ThreadPool pool(threads, spec.run.pin_threads);

  const unsigned d = spec.run.prefetch_distance;

  // Scalar twin first (direct path = the speedup baseline).
  const KernelInfo* scalar = KernelRegistry::Get().Scalar(spec.layout);
  if (scalar == nullptr) {
    throw std::runtime_error("RunCase: no scalar kernel for layout " +
                             spec.layout.ToString());
  }
  result.kernels.push_back(
      MeasureKernel<K, V>(*scalar, views, queries, spec, 0, &pool, sharded.get()));
  const double scalar_mlps = result.kernels.front().mlps_per_core;
  const auto relative = [scalar_mlps](MeasuredKernel m) {
    m.speedup = scalar_mlps > 0 ? m.mlps_per_core / scalar_mlps : 0.0;
    return m;
  };
  if (d != 0) {
    result.kernels.push_back(relative(
        MeasureKernel<K, V>(*scalar, views, queries, spec, d, &pool, sharded.get())));
  }

  for (const KernelInfo* kernel : kernels) {
    if (kernel == nullptr || kernel == scalar) continue;
    result.kernels.push_back(relative(
        MeasureKernel<K, V>(*kernel, views, queries, spec, 0, &pool, sharded.get())));
    if (d != 0) {
      result.kernels.push_back(relative(
          MeasureKernel<K, V>(*kernel, views, queries, spec, d, &pool, sharded.get())));
    }
  }
  return result;
}

}  // namespace

CaseResult RunCase(const CaseSpec& spec,
                   const std::vector<const KernelInfo*>& kernels) {
  std::string why;
  if (!spec.layout.Validate(&why)) {
    throw std::invalid_argument("RunCase: " + why);
  }
  const unsigned kb = spec.layout.key_bits;
  const unsigned vb = spec.layout.val_bits;
  if (kb == 16 && vb == 32) {
    return RunCaseImpl<std::uint16_t, std::uint32_t>(spec, kernels);
  }
  if (kb == 32 && vb == 32) {
    return RunCaseImpl<std::uint32_t, std::uint32_t>(spec, kernels);
  }
  if (kb == 64 && vb == 64) {
    return RunCaseImpl<std::uint64_t, std::uint64_t>(spec, kernels);
  }
  throw std::invalid_argument("RunCase: unsupported (key, value) widths");
}

CaseResult RunCaseAuto(const CaseSpec& spec,
                       const ValidationOptions& options) {
  std::vector<const KernelInfo*> kernels;
  for (const DesignChoice& choice :
       ValidationEngine::Enumerate(spec.layout, options)) {
    if (choice.kernel != nullptr) kernels.push_back(choice.kernel);
  }
  return RunCase(spec, kernels);
}

}  // namespace simdht
