// Performance engine (paper Section IV-A, module 4).
//
// Given a table layout, a target HT size / load factor, and a workload
// pattern, RunCase builds the table, generates per-thread probe streams,
// runs each requested lookup kernel plus its scalar twin across the worker
// pool (full-subscription, shared table by default — the paper's protocol),
// and reports throughput per core averaged over five runs.
#ifndef SIMDHT_CORE_CASE_RUNNER_H_
#define SIMDHT_CORE_CASE_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_options.h"
#include "core/validation.h"
#include "core/workload.h"
#include "ht/layout.h"
#include "obs/time_slicer.h"
#include "perf/perf_events.h"
#include "simd/kernel.h"

namespace simdht {

struct CaseSpec {
  LayoutSpec layout;
  std::uint64_t table_bytes = 1ULL << 20;  // target HT size (1 MB default)
  double load_factor = 0.9;
  AccessPattern pattern = AccessPattern::kUniform;
  double hit_rate = 0.9;
  double zipf_s = 0.99;
  bool shared_table = true;  // false = dedicated table per core
  // Execution knobs shared with the mixed runner / CLI / benches. When
  // run.prefetch_distance != 0 every kernel (scalar twin included) is
  // additionally measured at that prefetch distance as an extra design
  // point.
  RunOptions run;
};

// One kernel's measurement within a case.
struct MeasuredKernel {
  std::string name;             // kernel name, plus a " [d=32]"-style
                                // suffix for prefetched design points
  Approach approach = Approach::kScalar;
  unsigned width_bits = 0;
  double mlps_per_core = 0.0;   // million lookups/sec per core (mean)
  double stddev_mlps = 0.0;
  double hit_fraction = 0.0;    // observed (should track CaseSpec.hit_rate)
  double speedup = 1.0;         // vs the direct scalar twin in the same case
  // Hardware-counter aggregate over all threads and repeats; populated when
  // spec.run.perf.enabled. perf_lookups is the matching operation count, so
  // Derived() yields per-lookup metrics.
  PerfSample perf;
  std::uint64_t perf_lookups = 0;
  bool perf_collected = false;
  // Time-sliced progress (cumulative lookups per worker, one snapshot per
  // spec.run.sample_ms across all repeats); empty unless sampling is on.
  std::vector<TimeSlice> slices;

  DerivedPerf Derived() const { return ComputeDerived(perf, perf_lookups); }
};

struct CaseResult {
  LayoutSpec layout;
  double achieved_load_factor = 0.0;
  std::uint64_t actual_table_bytes = 0;
  unsigned threads = 0;
  unsigned shards = 1;  // table shards measured (spec.run.shards)
  // First entry is always the scalar twin.
  std::vector<MeasuredKernel> kernels;

  // Best non-scalar entry (highest throughput); null if none measured.
  const MeasuredKernel* Best() const;
};

// Row label of a kernel measured at `prefetch_distance`: the kernel name
// for the direct path (0), else the name plus " [d=N]".
std::string PrefetchRowName(const std::string& kernel_name,
                            unsigned prefetch_distance);

// Runs the scalar twin plus `kernels` (may be empty for scalar-only runs).
CaseResult RunCase(const CaseSpec& spec,
                   const std::vector<const KernelInfo*>& kernels);

// Enumerates viable designs via the validation engine and measures all of
// them (plus the scalar twin).
CaseResult RunCaseAuto(const CaseSpec& spec,
                       const ValidationOptions& options = {});

// Rounds a byte budget to the bucket count actually allocated (largest
// power of two whose table fits the budget; minimum 2 buckets).
std::uint64_t BucketsForBytes(const LayoutSpec& layout,
                              std::uint64_t table_bytes);

}  // namespace simdht

#endif  // SIMDHT_CORE_CASE_RUNNER_H_
