// Prefetch-pipeline microbench: direct kernel calls vs the group/AMAC
// software-prefetch schedules, swept over table size x group size.
//
// The crossover the pipeline is built for: once the table outgrows the
// last-level cache, every probe misses DRAM and lookup throughput is
// latency-bound. Prefetching the candidate buckets of a whole group of
// keys before running the compare kernel overlaps those misses; on
// cache-resident tables the extra pass is pure overhead. Single-threaded
// on purpose — memory-level parallelism per core is exactly what the
// schedule changes.
#include <algorithm>
#include <memory>

#include "bench_common.h"
#include "common/timer.h"
#include "core/workload.h"
#include "ht/cuckoo_table.h"
#include "ht/table_builder.h"
#include "simd/pipeline.h"

using namespace simdht;
using namespace simdht::bench;

namespace {

double MeasureMlps(const KernelInfo& kernel, const TableView& view,
                   const std::vector<std::uint32_t>& queries,
                   const PipelineConfig& config, unsigned repeats,
                   std::size_t batch, const PerfOptions& perf,
                   MeasuredKernel* perf_row) {
  std::vector<std::uint32_t> vals(queries.size());
  std::vector<std::uint8_t> found(queries.size());
  RunningStat stat;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    CounterGroup counters(perf.enabled
                              ? (perf.events.empty() ? DefaultPerfEvents()
                                                     : perf.events)
                              : std::vector<PerfEvent>{});
    if (perf.enabled) counters.Start();
    Timer t;
    for (std::size_t off = 0; off < queries.size(); off += batch) {
      const std::size_t chunk = std::min(batch, queries.size() - off);
      PipelinedLookup(kernel, view,
                      ProbeBatch::Of(queries.data() + off, vals.data() + off,
                                     found.data() + off, chunk),
                      config);
    }
    stat.Add(static_cast<double>(queries.size()) / t.ElapsedSeconds() / 1e6);
    if (perf.enabled) {
      perf_row->perf.Accumulate(counters.Stop());
      perf_row->perf_lookups += queries.size();
    }
  }
  perf_row->perf_collected = perf.enabled && perf_row->perf.valid_mask != 0;
  return stat.mean();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  PrintHeader("Prefetch pipeline: table size x schedule sweep", opt);
  ReportSession session(opt, "Prefetch pipeline: size x schedule sweep");

  std::vector<std::uint64_t> sizes = {1 << 20, 16 << 20, 64 << 20,
                                      256 << 20};
  if (opt.quick) sizes = {4 << 20, 64 << 20};

  const std::size_t queries =
      opt.queries_per_thread ? opt.queries_per_thread
                             : (opt.quick ? (1u << 20) : (1u << 22));
  const unsigned repeats = opt.repeats ? opt.repeats : (opt.quick ? 3 : 5);
  constexpr std::size_t kBatch = 4096;  // keys handed to one PipelinedLookup

  const PipelineConfig schedules[] = {
      {PrefetchPolicy::kNone, 0, 0},     {PrefetchPolicy::kGroup, 8, 1},
      {PrefetchPolicy::kGroup, 32, 1},   {PrefetchPolicy::kGroup, 128, 1},
      {PrefetchPolicy::kAmac, 16, 2},    {PrefetchPolicy::kAmac, 32, 4},
  };

  // The paper's BCHT representative; scalar twin + every horizontal kernel
  // (one per vector width) this CPU supports.
  const LayoutSpec layout = Layout(2, 4);
  std::vector<const KernelInfo*> kernels = {
      KernelRegistry::Get().Scalar(layout)};
  for (const KernelInfo* k : KernelRegistry::Get().Find(
           KernelQuery{layout, Approach::kHorizontal})) {
    kernels.push_back(k);
  }

  std::vector<std::string> headers = {"HT size", "kernel", "schedule",
                                      "Mlookups/s", "vs direct"};
  AppendPerfColumns(opt, &headers);
  TablePrinter table(std::move(headers));
  for (const std::uint64_t bytes : sizes) {
    auto tbl = std::make_unique<CuckooTable32>(
        layout.ways, layout.slots, BucketsForBytes(layout, bytes),
        layout.bucket_layout, opt.seed);
    auto build = FillToLoadFactor(tbl.get(), 0.9, opt.seed + 1);
    auto misses = UniqueRandomKeys<std::uint32_t>(
        std::max<std::size_t>(1024, build.inserted_keys.size() / 8),
        opt.seed + 2, &build.inserted_keys);
    WorkloadConfig wc;
    wc.pattern = AccessPattern::kUniform;
    wc.hit_rate = 0.9;
    wc.num_queries = queries;
    wc.seed = opt.seed + 3;
    const auto probe_stream =
        GenerateQueries(build.inserted_keys, misses, wc);
    const TableView view = tbl->view();

    for (const KernelInfo* kernel : kernels) {
      if (kernel == nullptr) continue;
      double direct_mlps = 0;
      for (const PipelineConfig& schedule : schedules) {
        MeasuredKernel perf_row;  // carries only the perf aggregate here
        const double mlps =
            MeasureMlps(*kernel, view, probe_stream, schedule, repeats,
                        kBatch, opt.perf, &perf_row);
        if (schedule.policy == PrefetchPolicy::kNone) direct_mlps = mlps;
        session.AddRow(
            kernel->name,
            {{"ht_size", std::to_string(bytes)},
             {"schedule", schedule.Describe()}},
            {{"mlps", ReportSession::Stat(mlps)},
             {"vs_direct",
              ReportSession::Stat(
                  direct_mlps > 0 ? mlps / direct_mlps : 1.0)}});
        std::vector<std::string> row = {
            HumanBytes(static_cast<double>(bytes)), kernel->name,
            schedule.Describe(), TablePrinter::Fmt(mlps, 1),
            schedule.policy == PrefetchPolicy::kNone
                ? "1.00"
                : TablePrinter::Fmt(mlps / direct_mlps, 2)};
        AppendPerfCells(opt, perf_row, &row);
        table.AddRow(std::move(row));
      }
    }
  }
  Emit(table, opt);
  PrintPerfFooter(opt);
  return session.Finish();
}
