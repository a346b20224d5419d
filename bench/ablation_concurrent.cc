// Concurrent structural writes vs SIMD batch lookups (library extension).
//
// The seqlocked cuckoo table (ConcurrentCuckooTable, CuckooTable's
// SeqlockWriters policy) allows full inserts/erases (BFS path displacement)
// to race epoch-validated batch lookups. This bench measures what a
// continuous insert/erase churn costs the readers — the step beyond
// ablation_mixed_rw's in-place value updates, completing the paper's
// Section VII future-work axis.
//
// --shards=1,2,4,8 sweeps the shard count: with S > 1 the table is a
// ShardedTable (per-shard seeds and writer locks), batches partition by
// shard before hitting the kernel, and the writer's churn contends with
// readers only on the shard it routes to. The shard count lands in both
// the printed table and the RunReport config so tools/simdht_compare can
// diff shard configs.
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "ht/sharded_table.h"

using namespace simdht;
using namespace simdht::bench;

namespace {

struct ChurnResult {
  double idle_mlps = 0;
  double churn_mlps = 0;
  double churn_ops = 0;  // writer inserts+erases per second (K)
};

// pace_per_ms = writer ops per millisecond (0 = unthrottled).
ChurnResult RunChurnCase(const LayoutSpec& layout, const KernelInfo* kernel,
                         unsigned shards, std::size_t queries,
                         unsigned repeats, std::uint64_t seed,
                         unsigned pace_per_ms) {
  ShardedTable32 table(shards, layout.ways, layout.slots,
                       BucketsForBytes(layout, 1 << 20),
                       layout.bucket_layout, seed);
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> resident;
  while (table.load_factor() < 0.7) {
    const auto key = static_cast<std::uint32_t>(rng.Next()) | 1;
    if (!table.Insert(key, key + 1)) break;
    resident.push_back(key);
  }
  // Probe stream: resident keys (lookup results stay verifiable even
  // though the churn writer uses disjoint keys).
  std::vector<std::uint32_t> probes;
  probes.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    probes.push_back(resident[rng.NextBounded(resident.size())]);
  }
  std::vector<std::uint32_t> vals(probes.size());
  std::vector<std::uint8_t> found(probes.size());

  const auto lookup = [&](const TableView& view, const std::uint32_t* keys,
                          std::uint32_t* out_vals, std::uint8_t* out_found,
                          std::size_t n) {
    return kernel->Lookup(view, ProbeBatch::Of(keys, out_vals, out_found, n));
  };
  ChurnResult result;
  RunningStat idle, churn, ops;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    {
      Timer t;
      table.BatchLookup(lookup, probes.data(), vals.data(), found.data(),
                        probes.size());
      idle.Add(static_cast<double>(probes.size()) / t.ElapsedSeconds() /
               1e6);
    }
    {
      std::atomic<bool> stop{false};
      std::atomic<std::uint64_t> writer_ops{0};
      std::thread writer([&] {
        // Insert/erase churn over a disjoint key range (high bit set).
        Xoshiro256 wrng(seed + rep + 1);
        std::vector<std::uint32_t> churn_keys;
        std::uint64_t count = 0;
        unsigned burst = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (pace_per_ms != 0 && ++burst >= pace_per_ms) {
            burst = 0;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          if (churn_keys.size() < 512) {
            const std::uint32_t k =
                (static_cast<std::uint32_t>(wrng.Next()) | 0x80000001u);
            if (table.Insert(k, 1)) churn_keys.push_back(k);
          } else {
            table.Erase(churn_keys.back());
            churn_keys.pop_back();
          }
          ++count;
        }
        writer_ops.store(count);
      });
      Timer t;
      table.BatchLookup(lookup, probes.data(), vals.data(), found.data(),
                        probes.size());
      const double secs = t.ElapsedSeconds();
      stop.store(true);
      writer.join();
      churn.Add(static_cast<double>(probes.size()) / secs / 1e6);
      ops.Add(static_cast<double>(writer_ops.load()) / secs / 1e3);
    }
  }
  result.idle_mlps = idle.mean();
  result.churn_mlps = churn.mean();
  result.churn_ops = ops.mean();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  PrintHeader("Concurrent structural churn vs batch lookups", opt);
  ReportSession session(opt, "Concurrent structural churn vs lookups");

  const std::size_t queries =
      opt.queries_per_thread ? opt.queries_per_thread
                             : (opt.quick ? (1u << 19) : (1u << 21));
  const unsigned repeats = opt.repeats ? opt.repeats : (opt.quick ? 3 : 5);

  TablePrinter table({"shards", "writer pace", "layout", "kernel",
                      "idle Mlps", "under churn Mlps", "churn Kops/s",
                      "reader slowdown"});
  struct Pace {
    const char* label;
    unsigned per_ms;
  };
  // ~50 K structural ops/s is an aggressive but realistic KVS write rate;
  // "unthrottled" is the adversarial worst case for epoch validation.
  const Pace paces[] = {{"50 Kops/s", 50}, {"unthrottled", 0}};
  for (const unsigned shards : opt.shard_sweep) {
    for (const Pace& pace : paces) {
      for (const LayoutSpec& layout : {Layout(2, 4), Layout(3, 1)}) {
        std::vector<const KernelInfo*> kernels = {
            KernelRegistry::Get().Scalar(layout)};
        for (const DesignChoice& c : ValidationEngine::Enumerate(layout)) {
          kernels.push_back(c.kernel);
        }
        for (const KernelInfo* kernel : kernels) {
          if (kernel == nullptr) continue;
          const ChurnResult r = RunChurnCase(layout, kernel, shards, queries,
                                             repeats, opt.seed, pace.per_ms);
          session.AddRow(
              kernel->name,
              {{"shards", std::to_string(shards)},
               {"pace", pace.label},
               {"layout", layout.ToString()}},
              {{"idle_mlps", ReportSession::Stat(r.idle_mlps)},
               {"churn_mlps", ReportSession::Stat(r.churn_mlps)},
               {"churn_kops", ReportSession::Stat(r.churn_ops)}});
          table.AddRow(
              {std::to_string(shards), pace.label, layout.ToString(),
               kernel->name, TablePrinter::Fmt(r.idle_mlps, 1),
               TablePrinter::Fmt(r.churn_mlps, 1),
               TablePrinter::Fmt(r.churn_ops, 1),
               TablePrinter::Fmt((1.0 - r.churn_mlps / r.idle_mlps) * 100.0,
                                 1) +
                   "%"});
        }
      }
    }
  }
  Emit(table, opt);
  return session.Finish();
}
