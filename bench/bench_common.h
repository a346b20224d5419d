// Shared scaffolding for the figure/table reproduction binaries.
//
// Every binary accepts:
//   --quick          smaller sweeps (default: on; --full for paper-scale)
//   --threads=N      worker threads (default: all hardware threads)
//   --queries=N      probe-stream length per thread per repetition
//   --repeats=N      repetitions averaged (paper protocol: 5)
//   --csv            machine-readable output
//   --seed=N         workload/table seed
//   --prefetch-distance=N
//                    also measure every kernel prefetching N keys ahead in
//                    its compare loop, as extra "[d=N]" rows (binaries that
//                    RunCase; default 0 = direct rows only)
//   --perf           attach hardware counters per worker and add
//                    cycles/lookup, IPC, LLC-miss and dTLB-miss columns
//                    (TSC-estimated cycles, marked "~", where
//                    perf_event_open is unavailable)
//   --perf-events=L  comma list to restrict the event set, e.g.
//                    cycles,instructions,llc-misses
//   --json=PATH      write a structured RunReport (schema, provenance, one
//                    row per kernel x config) — diffable via simdht_compare
//   --timeline=PATH  record a Chrome/Perfetto trace of build/warmup/rep
//                    spans (load at ui.perfetto.dev)
//   --sample-ms=N    snapshot per-worker progress every N ms into the
//                    report's sample series (0 = off)
//   --shards=LIST    table shards (comma list, e.g. 1,2,4,8). Case runners
//                    use the first value; sweep-aware binaries (e.g.
//                    ablation_concurrent) measure every value as a config
//                    column.
#ifndef SIMDHT_BENCH_BENCH_COMMON_H_
#define SIMDHT_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <climits>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/case_report.h"
#include "core/case_runner.h"
#include "core/mixed_runner.h"
#include "obs/run_report.h"
#include "obs/timeline.h"
#include "perf/perf_events.h"

namespace simdht {
namespace bench {

struct BenchOptions {
  bool quick = true;
  bool csv = false;
  unsigned threads = 0;
  std::size_t queries_per_thread = 0;  // 0 = per-binary default
  unsigned repeats = 0;                // 0 = per-binary default
  std::uint64_t seed = 42;
  unsigned prefetch_distance = 0;  // 0 = direct-only measurements
  PerfOptions perf;                // disabled = wall-clock-only measurements
  std::string json_path;      // --json: RunReport destination ("" = off)
  std::string timeline_path;  // --timeline: trace destination ("" = off)
  unsigned sample_ms = 0;     // --sample-ms: progress-sampling period
  unsigned shards = 1;                      // first --shards value
  std::vector<unsigned> shard_sweep = {1};  // full --shards list, in order
  std::string tool;           // binary basename, stamped into reports
  StringPairs raw_flags;      // every --name=value pair as parsed
};

inline BenchOptions ParseBenchOptions(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchOptions opt;
  opt.quick = !flags.GetBool("full", false) && flags.GetBool("quick", true);
  opt.csv = flags.GetBool("csv", false);
  opt.threads = static_cast<unsigned>(flags.GetInt("threads", 0));
  opt.queries_per_thread =
      static_cast<std::size_t>(flags.GetInt("queries", 0));
  opt.repeats = static_cast<unsigned>(flags.GetInt("repeats", 0));
  opt.seed = flags.GetUint64("seed", 42);
  opt.prefetch_distance = static_cast<unsigned>(std::min<std::uint64_t>(
      flags.GetUint64("prefetch-distance", 0), UINT_MAX));
  opt.perf.enabled =
      flags.GetBool("perf", false) || flags.Has("perf-events");
  std::string perf_why;
  if (!ParsePerfEventList(flags.GetString("perf-events", ""),
                          &opt.perf.events, &perf_why)) {
    std::fprintf(stderr, "--perf-events: %s; using the default set\n",
                 perf_why.c_str());
    opt.perf.events = DefaultPerfEvents();
  }
  opt.json_path = flags.GetString("json", "");
  opt.timeline_path = flags.GetString("timeline", "");
  opt.sample_ms = static_cast<unsigned>(flags.GetInt("sample-ms", 0));
  opt.shard_sweep.clear();
  for (std::int64_t s : flags.GetIntList("shards", {1})) {
    if (s < 1) {
      std::fprintf(stderr, "--shards values must be >= 1; ignoring %lld\n",
                   static_cast<long long>(s));
      continue;
    }
    opt.shard_sweep.push_back(static_cast<unsigned>(s));
  }
  if (opt.shard_sweep.empty()) opt.shard_sweep.push_back(1);
  opt.shards = opt.shard_sweep.front();
  if (!opt.timeline_path.empty()) Timeline::Global().Enable();
  std::string tool = flags.program_name();
  const std::size_t slash = tool.find_last_of('/');
  opt.tool = slash == std::string::npos ? tool : tool.substr(slash + 1);
  for (const auto& [name, value] : flags.items()) {
    opt.raw_flags.emplace_back(name, value);
  }
  return opt;
}

// Applies global options onto a per-binary CaseSpec default.
inline void ApplyOptions(const BenchOptions& opt, CaseSpec* spec) {
  if (opt.threads != 0) spec->run.threads = opt.threads;
  if (opt.queries_per_thread != 0) {
    spec->run.queries_per_thread = opt.queries_per_thread;
  }
  if (opt.repeats != 0) spec->run.repeats = opt.repeats;
  spec->run.seed = opt.seed;
  spec->run.prefetch_distance = opt.prefetch_distance;
  spec->run.perf = opt.perf;
  spec->run.sample_ms = opt.sample_ms;
  spec->run.shards = opt.shards;
}

// --- shared --perf reporting -----------------------------------------------
//
// Binaries that print MeasuredKernel rows extend their header with
// AppendPerfColumns() and each row with AppendPerfCells(); both are no-ops
// while --perf is off, so tables keep their historical shape by default.

inline void AppendPerfColumns(const BenchOptions& opt,
                              std::vector<std::string>* headers) {
  if (!opt.perf.enabled) return;
  headers->insert(headers->end(),
                  {"cycles/lookup", "IPC", "LLC-miss/lookup",
                   "dTLB-miss/lookup", "perf src"});
}

inline void AppendPerfCells(const BenchOptions& opt, const MeasuredKernel& k,
                            std::vector<std::string>* row) {
  if (!opt.perf.enabled) return;
  const DerivedPerf d = k.Derived();
  row->push_back(FormatPerfValue(d.cycles_per_op, d.estimated, 1));
  row->push_back(FormatPerfValue(d.ipc, /*estimated=*/false, 2));
  row->push_back(FormatPerfValue(d.llc_misses_per_op, false, 3));
  row->push_back(FormatPerfValue(d.dtlb_misses_per_op, false, 3));
  row->push_back(!k.perf_collected ? "-" : d.estimated ? "tsc-est" : "hw");
}

// One-line provenance note under a --perf table (skipped for CSV output).
inline void PrintPerfFooter(const BenchOptions& opt) {
  if (!opt.perf.enabled || opt.csv) return;
  std::printf(
      "\nperf: 'hw' = perf_event_open counters (multiplexing-scaled); "
      "'tsc-est' = rdtsc fallback, cycle values marked '~' are estimates "
      "(perf_event_paranoid=%d)\n",
      PerfEventParanoid());
}

inline void PrintHeader(const char* title, const BenchOptions& opt) {
  if (opt.csv) return;
  std::printf("=== %s ===\n", title);
  std::printf("CPU: %s\n", GetCpuFeatures().ToString().c_str());
  std::printf("threads: %u  mode: %s\n\n",
              opt.threads ? opt.threads
                          : static_cast<unsigned>(HardwareThreads()),
              opt.quick ? "quick (use --full for paper-scale sweeps)"
                        : "full");
}

inline void Emit(const TablePrinter& table, const BenchOptions& opt) {
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
}

// Standard CaseSpec for the paper's stand-alone HT studies.
inline CaseSpec PaperCaseDefaults(const BenchOptions& opt) {
  CaseSpec spec;
  spec.load_factor = 0.9;
  spec.hit_rate = 0.9;
  spec.run.repeats = opt.quick ? 3 : 5;
  spec.run.queries_per_thread = opt.quick ? (1u << 18) : (1u << 21);
  ApplyOptions(opt, &spec);
  return spec;
}

// --- structured run reports (--json / --timeline) --------------------------
//
// One ReportSession per binary run: benches feed it every CaseResult (or
// hand-built row) alongside their TablePrinter output, then return
// `session.Finish()` from main. While neither --json nor --timeline is
// given everything is a no-op, so report-less runs stay byte-identical.
class ReportSession {
 public:
  ReportSession(const BenchOptions& opt, const std::string& title)
      : opt_(opt), active_(!opt.json_path.empty() ||
                           !opt.timeline_path.empty()) {
    if (!active_) return;
    report_ = NewRunReport(opt.tool, title);
    report_.flags = opt.raw_flags;
    const auto opt_str = [this](const char* k, std::string v) {
      report_.options.emplace_back(k, std::move(v));
    };
    opt_str("quick", opt.quick ? "true" : "false");
    opt_str("threads",
            std::to_string(opt.threads
                               ? opt.threads
                               : static_cast<unsigned>(HardwareThreads())));
    opt_str("queries_per_thread", std::to_string(opt.queries_per_thread));
    opt_str("repeats", std::to_string(opt.repeats));
    opt_str("seed", std::to_string(opt.seed));
    opt_str("prefetch_distance", std::to_string(opt.prefetch_distance));
    opt_str("perf", opt.perf.enabled ? "true" : "false");
    opt_str("sample_ms", std::to_string(opt.sample_ms));
    opt_str("shards", std::to_string(opt.shards));
  }

  bool active() const { return active_; }
  RunReport& report() { return report_; }

  // Sweep-point config helper: Config({{"ht_size","1048576"}, ...}).
  static StringPairs Config(StringPairs pairs) { return pairs; }

  void AddCase(const CaseResult& result, const StringPairs& config) {
    if (!active_) return;
    AppendCaseResult(&report_, result, config, opt_.sample_ms);
  }

  void AddMixed(const std::vector<MixedResult>& results,
                const StringPairs& config) {
    if (!active_) return;
    AppendMixedResults(&report_, results, config);
  }

  // Hand-built row for benches whose measurements are not MeasuredKernels
  // (e.g. fig2's max load factor, table1's layout geometry).
  void AddRow(const std::string& kernel, const StringPairs& config,
              std::vector<std::pair<std::string, MetricStat>> metrics) {
    if (!active_) return;
    ResultRow row;
    row.kernel = kernel;
    row.config = config;
    row.metrics = std::move(metrics);
    report_.results.push_back(std::move(row));
  }

  static MetricStat Stat(double mean, double stddev = 0.0) {
    MetricStat s;
    s.mean = mean;
    s.stddev = stddev;
    return s;
  }

  // Writes --json / --timeline outputs; the return value is main()'s exit
  // code (0, or 1 on I/O failure).
  int Finish() {
    if (!active_) return 0;
    return WriteReportOutputs(report_, opt_.json_path, opt_.timeline_path,
                              opt_.csv);
  }

 private:
  BenchOptions opt_;
  bool active_ = false;
  RunReport report_;
};

inline LayoutSpec Layout(unsigned n, unsigned m, unsigned kb = 32,
                         unsigned vb = 32,
                         BucketLayout bl = BucketLayout::kInterleaved) {
  LayoutSpec s;
  s.ways = n;
  s.slots = m;
  s.key_bits = kb;
  s.val_bits = vb;
  s.bucket_layout = bl;
  return s;
}

}  // namespace bench
}  // namespace simdht

#endif  // SIMDHT_BENCH_BENCH_COMMON_H_
