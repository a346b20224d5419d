// Fig 5 / Case Study 1(a): horizontal vs vertical SIMD approaches across
// the (N, m) sweep, uniform vs skewed access, 1 MB HT, (K,V) = (32,32),
// LF = 90% (where achievable), hit rate 90%.
//
// Paper shape to look for: vector beats scalar everywhere under uniform
// access (up to ~3x); under skew the scalar baseline benefits from cache
// locality so speedups shrink (1.2x-2x), with 3-way vertical and (2,4)
// horizontal the best LF/performance combinations.
//
// The sweep is three-way: next to the cuckoo (N, m) grid it measures the
// Swiss control-byte design (one probe family, 16-slot groups) so BCHT
// horizontal, BCHT vertical and Swiss appear in one table/report.
#include "bench_common.h"

using namespace simdht;
using namespace simdht::bench;

int main(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  PrintHeader(
      "Fig 5 / Case Study 1(a): horizontal vs vertical, uniform vs skew",
      opt);
  ReportSession session(opt,
                        "Fig 5: horizontal vs vertical, uniform vs skew");

  std::vector<std::string> headers = {"layout", "pattern", "LF",
                                      "kernel", "width", "Mlookups/s/core",
                                      "stddev", "speedup vs scalar"};
  AppendPerfColumns(opt, &headers);
  TablePrinter table(std::move(headers));

  std::vector<LayoutSpec> layouts = CaseStudy1Layouts();
  layouts.push_back(LayoutSpec::Swiss(32, 32));

  for (const AccessPattern pattern :
       {AccessPattern::kUniform, AccessPattern::kZipfian}) {
    for (const LayoutSpec& layout : layouts) {
      CaseSpec spec = PaperCaseDefaults(opt);
      spec.layout = layout;
      spec.table_bytes = 1 << 20;
      spec.pattern = pattern;

      const CaseResult result = RunCaseAuto(spec);
      session.AddCase(result, {{"layout", layout.ToString()},
                               {"pattern", AccessPatternName(pattern)}});
      for (const MeasuredKernel& k : result.kernels) {
        std::vector<std::string> row = {
            layout.ToString(), AccessPatternName(pattern),
            TablePrinter::Fmt(result.achieved_load_factor, 2), k.name,
            k.approach == Approach::kScalar
                ? "64"
                : TablePrinter::Fmt(std::int64_t{k.width_bits}),
            TablePrinter::Fmt(k.mlps_per_core, 1),
            TablePrinter::Fmt(k.stddev_mlps, 1),
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
