#include "core/mixed_runner.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/barrier.h"
#include "common/stats.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "ht/cuckoo_table.h"
#include "ht/table_builder.h"
#include "obs/timeline.h"

namespace simdht {

namespace {

// One measured pass of all readers over their streams, optionally with the
// writer running. Returns mean per-reader Mlps and writer Mupdates/s.
struct PassResult {
  double reader_mlps = 0.0;
  double writer_mups = 0.0;
};

// Exactly one of `table` / `sharded` / `swiss` is non-null. With a sharded
// table, readers partition each batch by shard (epoch-validated per shard)
// and the writer's updates route through the shard router. A Swiss table
// shares the single-table path: UpdateValue is the same single-aligned-word
// store contract in both families.
PassResult RunPass(const KernelInfo& kernel, CuckooTable32* table,
                   ShardedTable32* sharded, SwissTable32* swiss,
                   const std::vector<std::vector<std::uint32_t>>& queries,
                   const std::vector<std::uint32_t>& resident_keys,
                   std::size_t batch, unsigned prefetch_distance,
                   bool with_writer, std::uint64_t seed,
                   const PerfOptions& perf, PerfSample* perf_out) {
  const auto readers = static_cast<unsigned>(queries.size());
  const TableView view = table != nullptr
                             ? table->view()
                             : swiss != nullptr ? swiss->view() : TableView{};
  SpinBarrier barrier(readers + (with_writer ? 1 : 0));
  std::atomic<bool> stop_writer{false};
  std::vector<double> reader_secs(readers, 0.0);
  std::atomic<std::uint64_t> writer_updates{0};
  double writer_secs = 0.0;
  const bool collect_perf = perf.enabled && perf_out != nullptr;
  std::vector<PerfSample> samples(collect_perf ? readers : 0);

  std::vector<std::thread> threads;
  for (unsigned r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      const auto& q = queries[r];
      std::vector<std::uint32_t> vals(batch);
      std::vector<std::uint8_t> found(batch);
      CounterGroup counters(
          collect_perf ? (perf.events.empty() ? DefaultPerfEvents()
                                              : perf.events)
                       : std::vector<PerfEvent>{});
      barrier.Wait();
      if (collect_perf) counters.Start();
      Timer timer;
      std::size_t off = 0;
      std::uint64_t sink = 0;
      while (off < q.size()) {
        const std::size_t chunk = std::min(batch, q.size() - off);
        if (sharded != nullptr) {
          sink += sharded->BatchLookup(
              [&](const TableView& shard_view, const std::uint32_t* k,
                  std::uint32_t* v, std::uint8_t* f, std::size_t m) {
                return kernel.Lookup(
                    shard_view,
                    ProbeBatch::Of(k, v, f, m, prefetch_distance));
              },
              q.data() + off, vals.data(), found.data(), chunk);
        } else {
          sink += kernel.Lookup(
              view, ProbeBatch::Of(q.data() + off, vals.data(), found.data(),
                                   chunk, prefetch_distance));
        }
        off += chunk;
      }
      reader_secs[r] = timer.ElapsedSeconds();
      if (collect_perf) samples[r] = counters.Stop();
      DoNotOptimize(sink);
    });
  }

  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      Xoshiro256 rng(seed ^ 0x5151);
      barrier.Wait();
      Timer timer;
      std::uint64_t updates = 0;
      // At least one update per pass, even if the readers finish before
      // the writer is first scheduled.
      do {
        const std::uint32_t key =
            resident_keys[rng.NextBounded(resident_keys.size())];
        const auto new_val = static_cast<std::uint32_t>(rng.Next()) |
                             0x80000000u;
        if (sharded != nullptr) {
          sharded->UpdateValue(key, new_val);
        } else if (swiss != nullptr) {
          swiss->UpdateValue(key, new_val);
        } else {
          table->UpdateValue(key, new_val);
        }
        ++updates;
      } while (!stop_writer.load(std::memory_order_relaxed));
      writer_secs = timer.ElapsedSeconds();
      writer_updates.store(updates);
    });
  }

  for (auto& t : threads) t.join();
  stop_writer.store(true);
  if (writer.joinable()) writer.join();

  if (collect_perf) {
    for (const PerfSample& s : samples) perf_out->Accumulate(s);
  }

  PassResult result;
  double sum = 0.0;
  for (unsigned r = 0; r < readers; ++r) {
    if (reader_secs[r] > 0) {
      sum += static_cast<double>(queries[r].size()) / reader_secs[r] / 1e6;
    }
  }
  result.reader_mlps = sum / readers;
  if (with_writer && writer_secs > 0) {
    result.writer_mups =
        static_cast<double>(writer_updates.load()) / writer_secs / 1e6;
  }
  return result;
}

}  // namespace

std::vector<MixedResult> RunMixedCase(
    const CaseSpec& spec, const std::vector<const KernelInfo*>& kernels) {
  const bool is_swiss = spec.layout.family == TableFamily::kSwiss;
  if (spec.layout.key_bits != 32 || spec.layout.val_bits != 32 ||
      (!is_swiss &&
       spec.layout.bucket_layout != BucketLayout::kInterleaved)) {
    throw std::invalid_argument(
        "RunMixedCase: only 32-bit interleaved cuckoo layouts and the Swiss "
        "k32/v32 layout are supported");
  }
  if (is_swiss && spec.run.shards > 1) {
    throw std::invalid_argument(
        "RunMixedCase: sharding is implemented for the cuckoo family only; "
        "the Swiss family requires run.shards == 1");
  }

  const unsigned threads =
      spec.run.threads == 0 ? static_cast<unsigned>(HardwareThreads())
                            : spec.run.threads;
  const unsigned readers = threads > 1 ? threads - 1 : 1;

  const unsigned shards = spec.run.shards == 0 ? 1 : spec.run.shards;
  std::unique_ptr<CuckooTable32> table;
  std::unique_ptr<ShardedTable32> sharded;
  std::unique_ptr<SwissTable32> swiss;
  BuildResult<std::uint32_t> build;
  const std::uint64_t num_buckets =
      BucketsForBytes(spec.layout, spec.table_bytes);
  if (is_swiss) {
    swiss = std::make_unique<SwissTable32>(num_buckets, spec.run.seed,
                                           spec.run.hash_kind);
    build = FillToLoadFactor(swiss.get(), spec.load_factor,
                             spec.run.seed + 1);
  } else if (shards > 1) {
    sharded = std::make_unique<ShardedTable32>(
        shards, spec.layout.ways, spec.layout.slots, num_buckets,
        spec.layout.bucket_layout, spec.run.seed);
    build = FillToLoadFactor(sharded.get(), spec.load_factor,
                             spec.run.seed + 1);
  } else {
    table = std::make_unique<CuckooTable32>(
        spec.layout.ways, spec.layout.slots, num_buckets,
        spec.layout.bucket_layout, spec.run.seed);
    build = FillToLoadFactor(table.get(), spec.load_factor,
                             spec.run.seed + 1);
  }
  auto misses = UniqueRandomKeys<std::uint32_t>(
      std::max<std::size_t>(1024, build.inserted_keys.size() / 8),
      spec.run.seed + 2, &build.inserted_keys);

  std::vector<std::vector<std::uint32_t>> queries(readers);
  for (unsigned r = 0; r < readers; ++r) {
    WorkloadConfig wc;
    wc.pattern = spec.pattern;
    wc.hit_rate = spec.hit_rate;
    wc.zipf_s = spec.zipf_s;
    wc.num_queries = spec.run.queries_per_thread;
    wc.seed = spec.run.seed + 9 * (r + 1);
    queries[r] = GenerateQueries(build.inserted_keys, misses, wc);
  }

  std::vector<const KernelInfo*> all = {
      KernelRegistry::Get().Scalar(spec.layout)};
  all.insert(all.end(), kernels.begin(), kernels.end());

  // Like the read-only engine: with a prefetch distance configured each
  // kernel is measured direct *and* at that distance, as separate design
  // points.
  std::vector<std::pair<const KernelInfo*, unsigned>> rows;
  for (const KernelInfo* kernel : all) {
    if (kernel == nullptr) continue;
    rows.emplace_back(kernel, 0);
    if (spec.run.prefetch_distance != 0) {
      rows.emplace_back(kernel, spec.run.prefetch_distance);
    }
  }

  std::vector<MixedResult> results;
  for (const auto& [kernel, prefetch_distance] : rows) {
    MixedResult r;
    r.kernel = PrefetchRowName(kernel->name, prefetch_distance);
    RunningStat ro, ww, wu;
    for (unsigned rep = 0; rep < spec.run.repeats; ++rep) {
      const std::string rep_tag = " rep" + std::to_string(rep);
      {
        TimelineSpan span("bench", r.kernel + " read-only" + rep_tag);
        ro.Add(RunPass(*kernel, table.get(), sharded.get(), swiss.get(),
                       queries, build.inserted_keys, spec.run.batch,
                       prefetch_distance, /*with_writer=*/false,
                       spec.run.seed + rep, spec.run.perf, &r.perf_read_only)
                   .reader_mlps);
      }
      TimelineSpan span("bench", r.kernel + " with-writer" + rep_tag);
      const PassResult with =
          RunPass(*kernel, table.get(), sharded.get(), swiss.get(), queries,
                  build.inserted_keys, spec.run.batch, prefetch_distance,
                  /*with_writer=*/true, spec.run.seed + rep, spec.run.perf,
                  &r.perf_with_writer);
      ww.Add(with.reader_mlps);
      wu.Add(with.writer_mups);
    }
    if (spec.run.perf.enabled) {
      for (const auto& q : queries) {
        r.perf_lookups += q.size() * spec.run.repeats;
      }
      r.perf_collected = r.perf_read_only.valid_mask != 0;
    }
    r.read_only_mlps = ro.mean();
    r.with_writer_mlps = ww.mean();
    r.writer_mups = wu.mean();
    r.degradation =
        r.read_only_mlps > 0 ? 1.0 - r.with_writer_mlps / r.read_only_mlps
                             : 0.0;
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace simdht
