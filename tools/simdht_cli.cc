// simdht — the SimdHT-Bench command-line interface (paper Fig 4).
//
// Wires the suite's four modules together for ad-hoc studies:
//   1. configurable input parameters  (flags below)
//   2. workload/table generator
//   3. SIMD algorithm validation engine (prints the Listing-1 line)
//   4. performance engine (scalar twin vs every viable SIMD design)
//
// Examples:
//   simdht --ways=2 --slots=4 --bytes=1M --pattern=zipf
//   simdht --ways=3 --slots=1 --key-bits=64 --hit-rate=0.5 --threads=4
//   simdht --ways=2 --slots=8 --key-bits=16 --layout=split --csv
//   simdht perf-check        # report hardware-counter availability
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/cpu_features.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/case_report.h"
#include "core/case_runner.h"
#include "core/trace.h"
#include "core/validation.h"
#include "ht/table_builder.h"
#include "obs/run_report.h"
#include "obs/timeline.h"
#include "perf/perf_events.h"
#include "serve_commands.h"

using namespace simdht;

namespace {

std::uint64_t ParseBytes(const std::string& s) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != nullptr) {
    switch (*end) {
      case 'k': case 'K': v *= 1 << 10; break;
      case 'm': case 'M': v *= 1 << 20; break;
      case 'g': case 'G': v *= 1 << 30; break;
      default: break;
    }
  }
  return static_cast<std::uint64_t>(v);
}

// `simdht perf-check`: report what the perf subsystem can measure here —
// per-event open results, the paranoid level, and whether measurement
// drivers will use hardware counters or the TSC fallback.
int RunPerfCheck(const Flags& flags) {
  std::string why;
  std::vector<PerfEvent> events;
  if (!ParsePerfEventList(flags.GetString("perf-events", ""), &events,
                          &why)) {
    std::fprintf(stderr, "--perf-events: %s\n", why.c_str());
    return 1;
  }

  std::printf("perf-check: perf_event_open availability\n");
  const int paranoid = PerfEventParanoid();
  if (paranoid == INT_MIN) {
    std::printf("kernel.perf_event_paranoid: unreadable\n");
  } else {
    std::printf("kernel.perf_event_paranoid: %d%s\n", paranoid,
                paranoid >= 2 ? " (user-space-only counting)" : "");
  }
  if (PerfForceDisabled()) {
    std::printf("SIMDHT_PERF_DISABLE=1: hardware counters forced off\n");
  }

  TablePrinter table({"event", "status", "detail"});
  unsigned available = 0;
  for (const PerfEventProbe& probe : ProbePerfEvents(events)) {
    available += probe.available;
    table.AddRow({PerfEventName(probe.event),
                  probe.available ? "ok" : "unavailable",
                  probe.available ? "-" : probe.error});
  }
  table.Print();

  if (available == 0) {
    std::printf(
        "\nno hardware events usable: --perf falls back to rdtsc cycle\n"
        "estimates (reported as '~value' with perf src 'tsc-est').\n");
  } else {
    std::printf("\n%u event(s) usable: --perf reports hardware counts.\n",
                available);
  }
  return 0;
}

// `simdht kernels`: list every registered lookup kernel with its table
// family — the quickest way to see what a forced --kernel name or a
// family/layout combination can resolve to on this CPU.
int RunKernelList() {
  TablePrinter table({"kernel", "family", "approach", "ISA", "width",
                      "key/val", "layout", "cpu"});
  const CpuFeatures& cpu = GetCpuFeatures();
  for (const KernelInfo& k : KernelRegistry::Get().all()) {
    table.AddRow({k.name, TableFamilyName(k.family), ApproachName(k.approach),
                  SimdLevelName(k.level),
                  TablePrinter::Fmt(std::int64_t{k.width_bits}),
                  std::string("k") + std::to_string(k.key_bits) + "/v" +
                      std::to_string(k.val_bits),
                  k.bucket_layout == BucketLayout::kSplit ? "split"
                                                          : "interleaved",
                  cpu.Supports(k.level) ? "ok" : "unsupported"});
  }
  table.Print();
  return 0;
}

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [perf-check|kernels|serve|loadgen|top] [options]\n"
      "subcommands:\n"
      "  perf-check        probe hardware-counter availability and exit\n"
      "  kernels           list registered lookup kernels (with their table\n"
      "                    family: cuckoo or Swiss) and exit\n"
      "  serve             run a KVS server on a real TCP port (see\n"
      "                    'simdht serve --help')\n"
      "  loadgen           open-loop Multi-Get load against serve\n"
      "                    processes (see 'simdht loadgen --help')\n"
      "  top               live rolling-window dashboard for a serve\n"
      "                    process (see 'simdht top --help')\n"
      "table layout:\n"
      "  --family=F        cuckoo | swiss (default cuckoo): swiss probes a\n"
      "                    control-byte lane in 16-slot groups; --ways,\n"
      "                    --slots and --layout are fixed by the family\n"
      "  --hash=H          multiply-shift | wyhash (default multiply-shift;\n"
      "                    wyhash is swiss-only)\n"
      "  --ways=N          hash functions, 2-4 (default 2)\n"
      "  --slots=M         slots per bucket, 1/2/4/8 (default 4)\n"
      "  --key-bits=B      16, 32 or 64 (default 32)\n"
      "  --val-bits=B      32 or 64 (default = key-bits, min 32)\n"
      "  --layout=X        interleaved | split (default interleaved)\n"
      "  --bytes=S         target table size, e.g. 1M, 256K (default 1M)\n"
      "  --load-factor=F   fill target (default 0.9)\n"
      "workload:\n"
      "  --pattern=P       uniform | zipf (default uniform)\n"
      "  --hit-rate=F      probe selectivity (default 0.9)\n"
      "  --zipf-s=F        skew exponent (default 0.99)\n"
      "engine:\n"
      "  --threads=N       worker threads (default: all cores)\n"
      "  --queries=N       probes per thread per run (default 1M)\n"
      "  --repeats=N       runs averaged (default 5)\n"
      "  --prefetch-distance=N\n"
      "                    also measure each kernel prefetching N keys ahead\n"
      "                    in its compare loop, as '[d=N]' rows (default 0)\n"
      "  --widths=LIST     vector widths to consider (default 128,256,512)\n"
      "  --hybrid          include vertical-over-BCHT designs\n"
      "  --no-strict       admit chunked horizontal probes\n"
      "  --per-core-table  dedicated table per thread (default shared)\n"
      "  --perf            attach hardware counters; adds cycles/lookup,\n"
      "                    IPC and LLC/dTLB miss columns (rdtsc-estimated\n"
      "                    cycles, marked '~', without perf_event_open)\n"
      "  --perf-events=L   restrict the counter set (see perf-check)\n"
      "  --csv             machine-readable output\n"
      "observability:\n"
      "  --json=PATH       write a structured RunReport (provenance + one\n"
      "                    row per kernel; diff with simdht_compare)\n"
      "  --timeline=PATH   record a Chrome/Perfetto trace of build/warmup/\n"
      "                    repetition spans\n"
      "  --sample-ms=N     snapshot per-worker progress every N ms into\n"
      "                    the report's sample series\n"
      "traces (32-bit interleaved layouts):\n"
      "  --trace-out=PATH  record the generated probe stream and exit\n"
      "  --trace-in=PATH   replay a recorded stream (single-threaded)\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string subcommand =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (flags.Has("help") || flags.Has("h")) {
    if (subcommand == "serve") {
      ServeUsage();
    } else if (subcommand == "loadgen") {
      LoadgenUsage();
    } else if (subcommand == "top") {
      TopUsage();
    } else {
      Usage(argv[0]);
    }
    return 0;
  }

  if (!subcommand.empty()) {
    if (subcommand == "perf-check") return RunPerfCheck(flags);
    if (subcommand == "kernels") return RunKernelList();
    if (subcommand == "serve") return RunServeCommand(flags);
    if (subcommand == "loadgen") return RunLoadgenCommand(flags);
    if (subcommand == "top") return RunTopCommand(flags);
    std::fprintf(stderr, "unknown subcommand '%s'\n", subcommand.c_str());
    Usage(argv[0]);
    return 1;
  }

  CaseSpec spec;
  spec.layout.ways = static_cast<unsigned>(flags.GetInt("ways", 2));
  spec.layout.slots = static_cast<unsigned>(flags.GetInt("slots", 4));
  spec.layout.key_bits =
      static_cast<unsigned>(flags.GetInt("key-bits", 32));
  spec.layout.val_bits = static_cast<unsigned>(flags.GetInt(
      "val-bits", spec.layout.key_bits < 32 ? 32 : spec.layout.key_bits));
  const std::string layout_name =
      flags.GetString("layout", spec.layout.key_bits == spec.layout.val_bits
                                    ? "interleaved"
                                    : "split");
  spec.layout.bucket_layout = layout_name == "split"
                                  ? BucketLayout::kSplit
                                  : BucketLayout::kInterleaved;
  const std::string family_name = flags.GetString("family", "cuckoo");
  if (family_name == "swiss") {
    spec.layout =
        LayoutSpec::Swiss(spec.layout.key_bits, spec.layout.val_bits);
  } else if (family_name != "cuckoo") {
    std::fprintf(stderr, "unknown --family '%s'\n", family_name.c_str());
    return 1;
  }
  const std::string hash_name = flags.GetString("hash", "multiply-shift");
  if (hash_name == "wyhash") {
    spec.run.hash_kind = HashKind::kWyHash;
  } else if (hash_name != "multiply-shift" && hash_name != "ms") {
    std::fprintf(stderr, "unknown --hash '%s'\n", hash_name.c_str());
    return 1;
  }
  spec.table_bytes = ParseBytes(flags.GetString("bytes", "1M"));
  spec.load_factor = flags.GetDouble("load-factor", 0.9);
  spec.hit_rate = flags.GetDouble("hit-rate", 0.9);
  spec.zipf_s = flags.GetDouble("zipf-s", 0.99);
  spec.run.threads = static_cast<unsigned>(flags.GetInt("threads", 0));
  spec.run.queries_per_thread =
      static_cast<std::size_t>(flags.GetInt("queries", 1 << 20));
  spec.run.repeats = static_cast<unsigned>(flags.GetInt("repeats", 5));
  spec.shared_table = !flags.GetBool("per-core-table", false);
  spec.run.seed = flags.GetUint64("seed", 42);
  spec.run.sample_ms =
      static_cast<unsigned>(flags.GetInt("sample-ms", 0));

  const std::string json_path = flags.GetString("json", "");
  const std::string timeline_path = flags.GetString("timeline", "");
  if (!timeline_path.empty()) Timeline::Global().Enable();

  const std::string pattern = flags.GetString("pattern", "uniform");
  if (!ParseAccessPattern(pattern, &spec.pattern)) {
    std::fprintf(stderr, "unknown --pattern '%s'\n", pattern.c_str());
    return 1;
  }

  spec.run.prefetch_distance = static_cast<unsigned>(std::min<std::uint64_t>(
      flags.GetUint64("prefetch-distance", 0), UINT_MAX));

  spec.run.perf.enabled =
      flags.GetBool("perf", false) || flags.Has("perf-events");
  std::string perf_why;
  if (!ParsePerfEventList(flags.GetString("perf-events", ""),
                          &spec.run.perf.events, &perf_why)) {
    std::fprintf(stderr, "--perf-events: %s\n", perf_why.c_str());
    return 1;
  }

  std::string why;
  if (!spec.layout.Validate(&why)) {
    std::fprintf(stderr, "invalid layout: %s\n", why.c_str());
    return 1;
  }

  ValidationOptions options;
  options.strict = !flags.GetBool("no-strict", false);
  options.include_hybrid = flags.GetBool("hybrid", false);
  for (std::int64_t w : flags.GetIntList("widths", {128, 256, 512})) {
    if (w != 128 && w != 256 && w != 512) {
      std::fprintf(stderr, "unsupported width %lld\n",
                   static_cast<long long>(w));
      return 1;
    }
  }
  options.widths.clear();
  for (std::int64_t w : flags.GetIntList("widths", {128, 256, 512})) {
    options.widths.push_back(static_cast<unsigned>(w));
  }

  // --- trace record / replay (32-bit interleaved layouts) ---
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string trace_in = flags.GetString("trace-in", "");
  if ((!trace_out.empty() || !trace_in.empty()) &&
      (spec.layout.key_bits != 32 || spec.layout.val_bits != 32)) {
    std::fprintf(stderr, "traces support 32-bit layouts only\n");
    return 1;
  }
  if (!trace_out.empty() || !trace_in.empty()) {
    CuckooTable32 table(spec.layout.ways, spec.layout.slots,
                        BucketsForBytes(spec.layout, spec.table_bytes),
                        spec.layout.bucket_layout, spec.run.seed);
    auto build = FillToLoadFactor(&table, spec.load_factor, spec.run.seed + 1000);

    if (!trace_out.empty()) {
      auto misses = UniqueRandomKeys<std::uint32_t>(
          std::max<std::size_t>(1024, build.inserted_keys.size() / 8),
          spec.run.seed + 77, &build.inserted_keys);
      WorkloadConfig wc;
      wc.pattern = spec.pattern;
      wc.hit_rate = spec.hit_rate;
      wc.zipf_s = spec.zipf_s;
      wc.num_queries = spec.run.queries_per_thread;
      wc.seed = spec.run.seed + 31;
      ProbeTrace<std::uint32_t> trace;
      trace.queries = GenerateQueries(build.inserted_keys, misses, wc);
      trace.hit_rate = spec.hit_rate;
      trace.table_seed = spec.run.seed;
      trace.pattern = static_cast<std::uint8_t>(spec.pattern);
      if (!SaveTraceToFile(trace, trace_out)) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     trace_out.c_str());
        return 1;
      }
      std::printf("recorded %zu probes to %s (table seed %llu)\n",
                  trace.queries.size(), trace_out.c_str(),
                  static_cast<unsigned long long>(spec.run.seed));
      return 0;
    }

    auto trace = LoadTraceFromFile<std::uint32_t>(trace_in);
    if (!trace.has_value()) {
      std::fprintf(stderr, "cannot read trace from %s\n", trace_in.c_str());
      return 1;
    }
    if (trace->table_seed != spec.run.seed) {
      std::fprintf(stderr,
                   "warning: trace was recorded against table seed %llu, "
                   "current --seed is %llu (hit rate will differ)\n",
                   static_cast<unsigned long long>(trace->table_seed),
                   static_cast<unsigned long long>(spec.run.seed));
    }
    std::printf("replaying %zu probes from %s\n", trace->queries.size(),
                trace_in.c_str());
    TablePrinter replay({"kernel", "Mlookups/s", "hits"});
    std::vector<std::uint32_t> vals(trace->queries.size());
    std::vector<std::uint8_t> found(trace->queries.size());
    std::vector<const KernelInfo*> kernels = {
        KernelRegistry::Get().Scalar(spec.layout)};
    ValidationOptions replay_opts;
    for (const DesignChoice& c :
         ValidationEngine::Enumerate(spec.layout, replay_opts)) {
      kernels.push_back(c.kernel);
    }
    for (const KernelInfo* kernel : kernels) {
      if (kernel == nullptr) continue;
      RunningStat stat;
      std::uint64_t hits = 0;
      // Replay honors --prefetch-distance (0 = the direct path).
      const ProbeBatch batch = ProbeBatch::Of(
          trace->queries.data(), vals.data(), found.data(),
          trace->queries.size(), spec.run.prefetch_distance);
      for (unsigned rep = 0; rep < spec.run.repeats; ++rep) {
        Timer timer;
        hits = kernel->Lookup(table.view(), batch);
        stat.Add(static_cast<double>(trace->queries.size()) /
                 timer.ElapsedSeconds() / 1e6);
      }
      replay.AddRow({kernel->name, TablePrinter::Fmt(stat.mean(), 1),
                     TablePrinter::Fmt(hits)});
    }
    replay.Print();
    return 0;
  }

  const bool csv = flags.GetBool("csv", false);
  if (!csv) {
    std::printf("SimdHT-Bench\nCPU: %s\n\n",
                GetCpuFeatures().ToString().c_str());
    std::printf("-- validation engine --\n%s: %s\n\n",
                spec.layout.ToString().c_str(),
                ValidationEngine::ListingLine(
                    spec.layout,
                    ValidationEngine::Enumerate(spec.layout, options))
                    .c_str());
    std::printf("-- performance engine --\n");
  }

  CaseResult result;
  try {
    result = RunCaseAuto(spec, options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  RunReport report;
  const bool want_report = !json_path.empty() || !timeline_path.empty();
  if (want_report) {
    report = NewRunReport("simdht", "simdht CLI ad-hoc case");
    for (const auto& [name, value] : flags.items()) {
      report.flags.emplace_back(name, value);
    }
    report.options.emplace_back("layout", spec.layout.ToString());
    report.options.emplace_back("table_bytes",
                                std::to_string(spec.table_bytes));
    report.options.emplace_back("pattern", pattern);
    report.options.emplace_back("threads",
                                std::to_string(result.threads));
    report.options.emplace_back("repeats",
                                std::to_string(spec.run.repeats));
    report.options.emplace_back("seed", std::to_string(spec.run.seed));
    AppendCaseResult(&report, result,
                     {{"layout", spec.layout.ToString()},
                      {"pattern", pattern},
                      {"table_bytes", std::to_string(spec.table_bytes)}},
                     spec.run.sample_ms);
  }

  std::vector<std::string> headers = {"kernel", "approach", "width",
                                      "Mlookups/s/core", "stddev",
                                      "hit rate", "speedup vs scalar"};
  if (spec.run.perf.enabled) {
    headers.insert(headers.end(),
                   {"cycles/lookup", "IPC", "LLC-miss/lookup", "perf src"});
  }
  TablePrinter table(std::move(headers));
  for (const MeasuredKernel& k : result.kernels) {
    std::vector<std::string> row = {
        k.name, ApproachName(k.approach),
        k.approach == Approach::kScalar
            ? "-"
            : TablePrinter::Fmt(std::int64_t{k.width_bits}),
        TablePrinter::Fmt(k.mlps_per_core, 1),
        TablePrinter::Fmt(k.stddev_mlps, 1),
        TablePrinter::Fmt(k.hit_fraction, 3),
        TablePrinter::Fmt(k.speedup, 2)};
    if (spec.run.perf.enabled) {
      const DerivedPerf d = k.Derived();
      row.push_back(FormatPerfValue(d.cycles_per_op, d.estimated, 1));
      row.push_back(FormatPerfValue(d.ipc, false, 2));
      row.push_back(FormatPerfValue(d.llc_misses_per_op, false, 3));
      row.push_back(!k.perf_collected ? "-" : d.estimated ? "tsc-est" : "hw");
    }
    table.AddRow(std::move(row));
  }
  if (csv) {
    table.PrintCsv();
  } else {
    table.Print();
    std::printf(
        "\ntable: %s buckets over %s; achieved load factor %.2f; %u "
        "threads, %s table\n",
        HumanCount(static_cast<double>(
                       BucketsForBytes(spec.layout, spec.table_bytes)))
            .c_str(),
        HumanBytes(static_cast<double>(result.actual_table_bytes)).c_str(),
        result.achieved_load_factor, result.threads,
        spec.shared_table ? "shared" : "per-core");
  }
  if (want_report) {
    return WriteReportOutputs(report, json_path, timeline_path, csv);
  }
  return 0;
}
