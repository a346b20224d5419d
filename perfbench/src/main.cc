// bench_suite: the repository benchmark, one workload per invocation.
//
//   bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <path>] [--smoke]
//
// Prints its diagnostics, then one `name value unit` line per metric, and
// as its last line one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// report the per-layer metrics, print the per-layer ledger and write a
// Chrome trace to --trace-out. Exits 1 when any result was wrong and 2 on
// bad arguments. --smoke shrinks every table for a quick self-check.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

using perfbench::Result;
using perfbench::RunConfig;

struct Workload {
  const char* name;
  Result (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"lookup-l2", perfbench::RunLookupL2},
    {"lookup-dram", perfbench::RunLookupDram},
    {"ycsb-a", perfbench::RunYcsbA},
    {"churn-swiss", perfbench::RunChurnSwiss},
    {"kvs-tcp", perfbench::RunKvsTcp},
};

// Every run ends well inside the 180 s a run may take, even if a
// regression makes a workload crawl: SIGALRM's default action ends it.
constexpr unsigned kWatchdogSeconds = 170;

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--smoke]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  const Workload* workload = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + arg).c_str());
    }
    std::uint64_t n = 0;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) workload = &w;
      }
      if (workload == nullptr) {
        return Usage(("unknown workload " + value).c_str());
      }
      cfg.workload = value;
    } else if (arg == "--seed" && ParseUint(value, &n)) {
      cfg.seed = n;
    } else if (arg == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 120) {
      cfg.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      cfg.trace = value == "1";
    } else if (arg == "--trace-out" && !value.empty()) {
      cfg.trace_path = value;
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  if (workload == nullptr) return Usage("--workload is required");
  if (cfg.trace_path.empty()) {
    cfg.trace_path = cfg.workload + "-seed" + std::to_string(cfg.seed) +
                     ".trace.json";
  }

  alarm(kWatchdogSeconds);
  perfbench::PinThread(0);
  Result result;
  try {
    result = workload->run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s failed: %s\n", workload->name,
                 e.what());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.smoke ? " smoke" : "");
  for (const std::string& line : result.lines) {
    std::printf("%s\n", line.c_str());
  }
  for (const perfbench::Metric& m : result.info) {
    std::printf("info %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  bool finite = true;
  for (const perfbench::Metric& m : result.metrics) {
    finite &= std::isfinite(m.value);
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0 && finite;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
