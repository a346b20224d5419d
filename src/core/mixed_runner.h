// Mixed read/update workload runner (the paper's Section VII future work).
//
// Extends the read-only performance engine with a concurrent writer: reader
// threads run batched lookups through a kernel while a dedicated writer
// thread continuously overwrites the values of resident keys (in-place,
// relocation-free — see CuckooTable::UpdateValue). The measurement contrasts
// reader throughput with the writer off vs on, per kernel.
#ifndef SIMDHT_CORE_MIXED_RUNNER_H_
#define SIMDHT_CORE_MIXED_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/case_runner.h"

namespace simdht {

struct MixedResult {
  std::string kernel;
  double read_only_mlps = 0.0;    // reader Mlookups/s/core, writer idle
  double with_writer_mlps = 0.0;  // same, with the writer running
  double writer_mups = 0.0;       // writer updates/s (millions)
  double degradation = 0.0;       // 1 - with_writer/read_only
  // Reader-side counter aggregates (threads x repeats, per pass kind);
  // populated when spec.run.perf.enabled. The contrast between the two
  // samples shows *why* the writer hurts (e.g. extra LLC misses/lookup).
  PerfSample perf_read_only;
  PerfSample perf_with_writer;
  std::uint64_t perf_lookups = 0;  // lookups behind each sample
  bool perf_collected = false;

  DerivedPerf DerivedReadOnly() const {
    return ComputeDerived(perf_read_only, perf_lookups);
  }
  DerivedPerf DerivedWithWriter() const {
    return ComputeDerived(perf_with_writer, perf_lookups);
  }
};

// Runs the scalar twin plus `kernels` over `spec` (shared table, reader
// threads = spec.run.threads - 1 when a writer runs, so core counts stay
// comparable). When spec.run.prefetch_distance is set each kernel is
// measured direct and at that distance. Only 32-bit interleaved layouts are
// supported (the shapes the KVS use case needs).
std::vector<MixedResult> RunMixedCase(
    const CaseSpec& spec, const std::vector<const KernelInfo*>& kernels);

}  // namespace simdht

#endif  // SIMDHT_CORE_MIXED_RUNNER_H_
