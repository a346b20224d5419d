// Prefetch-distance microbench: each kernel at the in-loop prefetch
// distances d = 0 (direct), 8, 16, 32 and 64, swept over table size.
//
// Once the table outgrows the last-level cache every probe misses DRAM and
// lookup throughput is latency-bound. A kernel that prefetches inside its
// own compare loop (the scalar cuckoo twin and the horizontal kernels)
// requests key i + d's candidate buckets right before comparing key i, so
// about d probes' misses overlap; on cache-resident tables the extra
// requests are pure overhead. The vertical and Swiss kernels run direct
// (they ignore the distance) and appear at d = 0 so one table shows every
// family. Single-threaded on purpose — memory-level parallelism per core is
// exactly what the distance changes.
#include <algorithm>
#include <memory>

#include "bench_common.h"
#include "common/timer.h"
#include "core/workload.h"
#include "ht/cuckoo_table.h"
#include "ht/swiss_table.h"
#include "ht/table_builder.h"

using namespace simdht;
using namespace simdht::bench;

namespace {

double MeasureMlps(const KernelInfo& kernel, const TableView& view,
                   const std::vector<std::uint32_t>& queries,
                   unsigned prefetch_distance, unsigned repeats,
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
      kernel.Lookup(view, ProbeBatch::Of(queries.data() + off,
                                         vals.data() + off,
                                         found.data() + off, chunk,
                                         prefetch_distance));
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

// Uniform 90%-hit probe stream over `inserted` keys.
std::vector<std::uint32_t> ProbeStream(
    const std::vector<std::uint32_t>& inserted, std::size_t queries,
    std::uint64_t seed) {
  const auto misses = UniqueRandomKeys<std::uint32_t>(
      std::max<std::size_t>(1024, inserted.size() / 8), seed + 2, &inserted);
  WorkloadConfig wc;
  wc.pattern = AccessPattern::kUniform;
  wc.hit_rate = 0.9;
  wc.num_queries = queries;
  wc.seed = seed + 3;
  return GenerateQueries(inserted, misses, wc);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  PrintHeader("Prefetch distance: table size x distance sweep", opt);
  ReportSession session(opt, "Prefetch distance: size x distance sweep");

  std::vector<std::uint64_t> sizes = {1 << 20, 16 << 20, 64 << 20,
                                      256 << 20};
  if (opt.quick) sizes = {4 << 20, 64 << 20};

  const std::size_t queries =
      opt.queries_per_thread ? opt.queries_per_thread
                             : (opt.quick ? (1u << 20) : (1u << 22));
  const unsigned repeats = opt.repeats ? opt.repeats : (opt.quick ? 3 : 5);
  constexpr std::size_t kBatch = 4096;  // keys handed to one Lookup call
  const std::vector<unsigned> distances = {0, 8, 16, 32, 64};

  // The paper's BCHT representative: its scalar twin and every horizontal
  // kernel (one per vector width) at each distance, and its vertical-over-
  // BCHT kernels direct. The Swiss family runs direct on a Swiss table of
  // the same size.
  const KernelRegistry& registry = KernelRegistry::Get();
  const LayoutSpec layout = Layout(2, 4);
  const LayoutSpec swiss_layout = LayoutSpec::Swiss(32, 32);
  std::vector<const KernelInfo*> swept = {registry.Scalar(layout)};
  for (const KernelInfo* k :
       registry.Find(KernelQuery{layout, Approach::kHorizontal})) {
    swept.push_back(k);
  }
  const std::vector<const KernelInfo*> vertical =
      registry.Find(KernelQuery{layout, Approach::kVerticalBcht});
  std::vector<const KernelInfo*> swiss_kernels = {
      registry.Scalar(swiss_layout)};
  for (const KernelInfo* k :
       registry.Find(KernelQuery{swiss_layout, Approach::kHorizontal})) {
    swiss_kernels.push_back(k);
  }

  std::vector<std::string> headers = {"HT size", "kernel", "distance",
                                      "Mlookups/s", "vs direct"};
  AppendPerfColumns(opt, &headers);
  TablePrinter table(std::move(headers));
  const auto measure = [&](std::uint64_t bytes, const TableView& view,
                           const std::vector<std::uint32_t>& probe_stream,
                           const std::vector<const KernelInfo*>& kernels,
                           const std::vector<unsigned>& kernel_distances) {
    for (const KernelInfo* kernel : kernels) {
      if (kernel == nullptr) continue;
      double direct_mlps = 0;
      for (const unsigned d : kernel_distances) {
        MeasuredKernel perf_row;  // carries only the perf aggregate here
        const double mlps = MeasureMlps(*kernel, view, probe_stream, d,
                                        repeats, kBatch, opt.perf, &perf_row);
        if (d == 0) direct_mlps = mlps;
        const double vs_direct = direct_mlps > 0 ? mlps / direct_mlps : 1.0;
        const std::string distance = "d=" + std::to_string(d);
        session.AddRow(kernel->name,
                       {{"ht_size", std::to_string(bytes)},
                        {"distance", distance}},
                       {{"mlps", ReportSession::Stat(mlps)},
                        {"vs_direct", ReportSession::Stat(vs_direct)}});
        std::vector<std::string> row = {
            HumanBytes(static_cast<double>(bytes)), kernel->name, distance,
            TablePrinter::Fmt(mlps, 1), TablePrinter::Fmt(vs_direct, 2)};
        AppendPerfCells(opt, perf_row, &row);
        table.AddRow(std::move(row));
      }
    }
  };
  for (const std::uint64_t bytes : sizes) {
    {
      auto tbl = std::make_unique<CuckooTable32>(
          layout.ways, layout.slots, BucketsForBytes(layout, bytes),
          layout.bucket_layout, opt.seed);
      const auto build = FillToLoadFactor(tbl.get(), 0.9, opt.seed + 1);
      const auto probe_stream =
          ProbeStream(build.inserted_keys, queries, opt.seed);
      measure(bytes, tbl->view(), probe_stream, swept, distances);
      measure(bytes, tbl->view(), probe_stream, vertical, {0});
    }
    auto swiss = std::make_unique<SwissTable32>(
        BucketsForBytes(swiss_layout, bytes), opt.seed);
    const auto build = FillToLoadFactor(swiss.get(), 0.9, opt.seed + 1);
    measure(bytes, swiss->view(),
            ProbeStream(build.inserted_keys, queries, opt.seed),
            swiss_kernels, {0});
  }
  Emit(table, opt);
  PrintPerfFooter(opt);
  return session.Finish();
}
