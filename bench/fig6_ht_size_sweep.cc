// Fig 6 / Case Study 1(b): lookup performance vs hash-table size.
//
// Paper shape: SIMD benefits shrink as the table outgrows the caches —
// ~3.5x average speedup at 256 KB (cache-resident) down to ~1.5x at 64 MB
// (memory-bound), for both approaches, uniform access, LF/hit = 90%.
#include "bench_common.h"

using namespace simdht;
using namespace simdht::bench;

int main(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  PrintHeader("Fig 6 / Case Study 1(b): HT size sweep (uniform)", opt);
  ReportSession session(opt, "Fig 6: HT size sweep (uniform)");

  std::vector<std::uint64_t> sizes = {256 << 10, 1 << 20, 4 << 20,
                                      16 << 20, 64 << 20};
  if (opt.quick) sizes = {256 << 10, 1 << 20, 4 << 20, 16 << 20};

  // The paper's two representative cuckoo designs (best horizontal, best
  // vertical) plus the Swiss control-byte family as a third design point.
  const LayoutSpec designs[] = {Layout(2, 4), Layout(3, 1),
                                LayoutSpec::Swiss(32, 32)};

  std::vector<std::string> headers = {"HT size", "layout", "kernel",
                                      "Mlookups/s/core", "speedup vs scalar"};
  AppendPerfColumns(opt, &headers);
  TablePrinter table(std::move(headers));
  for (const std::uint64_t bytes : sizes) {
    for (const LayoutSpec& layout : designs) {
      CaseSpec spec = PaperCaseDefaults(opt);
      spec.layout = layout;
      spec.table_bytes = bytes;
      // Keep the probe volume constant-ish in time across sizes.
      if (bytes >= (16u << 20) && opt.quick) {
        spec.run.queries_per_thread /= 2;
      }
      const CaseResult result = RunCaseAuto(spec);
      session.AddCase(result, {{"ht_size", std::to_string(bytes)},
                               {"layout", layout.ToString()}});
      for (const MeasuredKernel& k : result.kernels) {
        std::vector<std::string> row = {
            HumanBytes(static_cast<double>(bytes)), layout.ToString(), k.name,
            TablePrinter::Fmt(k.mlps_per_core, 1),
            TablePrinter::Fmt(k.speedup, 2)};
        AppendPerfCells(opt, k, &row);
        table.AddRow(std::move(row));
      }
    }
  }
  Emit(table, opt);
  PrintPerfFooter(opt);
  return session.Finish();
}
