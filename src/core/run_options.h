// Execution knobs shared by every measurement driver.
//
// The performance engine (CaseSpec in case_runner.h), the mixed read/write
// runner, the CLI and the bench binaries all used to duplicate these fields;
// RunOptions hoists them so the defaults — and any new knob, like the
// prefetch distance — live in exactly one place.
#ifndef SIMDHT_CORE_RUN_OPTIONS_H_
#define SIMDHT_CORE_RUN_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "hash/hash_family.h"
#include "perf/perf_events.h"

namespace simdht {

struct RunOptions {
  // Scalar hash evaluated per (way, key). Multiply-shift is required for
  // cuckoo layouts (the vertical kernels vectorize it); wyhash is a
  // Swiss-family alternative (see hash/hash_family.h).
  HashKind hash_kind = HashKind::kMultiplyShift;
  unsigned threads = 0;                      // 0 = all hardware threads
  // Shards of the measured table (ht/sharded_table.h). 1 = the classic
  // single-table setup; >1 builds one ShardedTable shared by all threads
  // (requires the shared-table mode) and batches partition by shard before
  // hitting the kernel. Independent of `threads`: shards partition storage,
  // threads partition the probe streams.
  unsigned shards = 1;
  std::size_t queries_per_thread = 1 << 20;  // probe-stream length per thread
  unsigned repeats = 5;                      // paper: average of five runs
  std::size_t batch = 2048;                  // keys per kernel invocation
  bool pin_threads = true;
  std::uint64_t seed = 42;
  // When nonzero, a background sampler snapshots every worker's cumulative
  // lookups-completed counter at this period; the slices land on each
  // MeasuredKernel row and in the run report (--json) as a SampleSeries.
  unsigned sample_ms = 0;
  // 0 = each kernel is measured direct only. N > 0 also measures each
  // kernel with ProbeBatch::prefetch_distance = N, as a separate design
  // point labelled "<kernel> [d=N]" (the vertical and Swiss kernels ignore
  // the distance, so their [d=N] rows repeat the direct path).
  unsigned prefetch_distance = 0;
  // When enabled, every worker attaches a CounterGroup around its measured
  // region and the result rows carry cycles/lookup, IPC, and miss-rate
  // columns (TSC-estimated cycles when perf_event_open is unavailable).
  PerfOptions perf;
};

}  // namespace simdht

#endif  // SIMDHT_CORE_RUN_OPTIONS_H_
