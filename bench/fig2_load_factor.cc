// Fig 2 reproduction: maximum achievable load factor per cuckoo variant.
//
// Paper: N-way (non-bucketized) cuckoo for N = 2..4 reaches ~50/91/97%,
// and (N, m) BCHT rises with slots-per-bucket (e.g. (2,4) ~93%). We measure
// empirically: insert unique random keys until an insert finally fails (no
// BFS eviction path, stash full, rebuild recovery exhausted).
#include "bench_common.h"
#include "ht/table_builder.h"

using namespace simdht;
using namespace simdht::bench;

int main(int argc, char** argv) {
  const BenchOptions opt = ParseBenchOptions(argc, argv);
  PrintHeader("Fig 2: max load factor vs (N, m) cuckoo variants", opt);
  ReportSession session(opt, "Fig 2: max load factor per cuckoo variant");

  const std::uint64_t buckets = opt.quick ? (1u << 13) : (1u << 16);
  const unsigned seeds = opt.quick ? 3 : 5;

  TablePrinter table({"N (ways)", "m (slots/bucket)", "layout",
                      "max LF (median)", "LF min-max", "paper reference"});
  struct Reference {
    unsigned n, m;
    const char* paper;
  };
  const Reference refs[] = {
      {2, 1, "~0.50"}, {3, 1, "~0.91"}, {4, 1, "~0.97"},
      {2, 2, "~0.84"}, {2, 4, "~0.93"}, {2, 8, "~0.96"},
      {3, 2, "~0.96"}, {3, 4, "~0.98"}, {3, 8, "~0.99"},
      {4, 2, "~0.98"}, {4, 4, "~0.99"}, {4, 8, "~0.99"},
  };

  for (const Reference& ref : refs) {
    // Slot count held comparable across shapes: scale buckets down by m.
    // One seed's max LF is a sample of placement luck; the spread exposes
    // how wide the luck band is while the median is stable run-to-run.
    const LoadFactorSpread spread =
        MeasureMaxLoadFactorSpread<std::uint32_t, std::uint32_t>(
            ref.n, ref.m, buckets / ref.m, BucketLayout::kInterleaved,
            opt.seed + 1, seeds);
    char band[64];
    std::snprintf(band, sizeof(band), "%.3f-%.3f", spread.min, spread.max);
    table.AddRow({TablePrinter::Fmt(std::int64_t{ref.n}),
                  TablePrinter::Fmt(std::int64_t{ref.m}),
                  ref.m == 1 ? "N-way cuckoo" : "BCHT",
                  TablePrinter::Fmt(spread.median, 3), band, ref.paper});
    session.AddRow(
        ref.m == 1 ? "N-way cuckoo" : "BCHT",
        {{"ways", std::to_string(ref.n)}, {"slots", std::to_string(ref.m)}},
        {{"max_load_factor_median", ReportSession::Stat(spread.median)},
         {"max_load_factor_min", ReportSession::Stat(spread.min)},
         {"max_load_factor_max", ReportSession::Stat(spread.max)}});
  }
  Emit(table, opt);
  return session.Finish();
}
