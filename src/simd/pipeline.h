// Software-prefetch pipelined batch-lookup engine.
//
// The compare kernels (scalar, horizontal, vertical) issue dependent loads:
// hash the key, then fetch the candidate buckets. Once the table exceeds
// the LLC every probe stalls on DRAM. The engine decides how those misses
// overlap, per kernel kind:
//
//   Horizontal cuckoo kernels (both policies) own the schedule: the engine
//           hands them the whole batch with ProbeBatch::prefetch_distance =
//           group_size, and their per-key loop (simd/horizontal_impl.h)
//           prefetches key i + group_size's candidate buckets right before
//           comparing key i — one key's lines per key compared, a steady
//           miss stream with no bursts. amac_groups does not apply.
//   Scalar twin under kAmac: the engine's own fused copy of the scalar loop
//           does the same per-key interleave with a window of amac_groups x
//           group_size probes (after Kocberber et al.'s Asynchronous Memory
//           Access Chaining).
//   Everything else (scalar under kGroup, vertical and Swiss kernels)
//           takes the slice schedule: split the batch into mini-batches of
//           `group_size` keys, prefetch the candidate buckets of the group
//           `depth` ahead (1 for kGroup, amac_groups for kAmac), then hand
//           group g to the kernel as a plain ProbeBatch slice.
//
// Under kNone the kernel gets the batch directly with prefetch distance 0.
// Results are bit-identical to the direct path in all cases.
#ifndef SIMDHT_SIMD_PIPELINE_H_
#define SIMDHT_SIMD_PIPELINE_H_

#include <cstdint>
#include <string>

#include "simd/kernel.h"

namespace simdht {

// How the batch-lookup engine schedules candidate-bucket prefetches.
enum class PrefetchPolicy : std::uint8_t {
  kNone = 0,   // direct: hand the whole batch straight to the kernel
  kGroup = 1,  // group prefetch: one mini-batch of lines ahead
  kAmac = 2,   // AMAC-style: `amac_groups` mini-batches in flight
};

const char* PrefetchPolicyName(PrefetchPolicy policy);

// Parses "none" / "group" / "amac"; returns false on unknown names.
bool ParsePrefetchPolicy(const std::string& name, PrefetchPolicy* out);

// Knobs for PipelinedLookup. The defaults are the crossover sweet spot on
// the machines measured by bench/micro_prefetch_pipeline (see
// docs/kernels.md): large enough to cover DRAM latency, small enough that
// the prefetched lines still live in L2 when the kernel consumes them.
struct PipelineConfig {
  PrefetchPolicy policy = PrefetchPolicy::kNone;
  // Keys per mini-batch; for horizontal kernels, the in-loop prefetch
  // distance (clamped to detail::kHashTile = 64).
  unsigned group_size = 32;
  unsigned amac_groups = 4;  // mini-batches in flight (kAmac, slice/scalar)

  // Label suffix for design points: "direct", "group:32", "amac:4x32".
  std::string Describe() const;

  // Rejects zero-sized knobs. Returns false + reason on violation.
  bool Validate(std::string* why = nullptr) const;
};

// Runs `kernel` over `batch` with the prefetch schedule in `config`.
// Produces results bit-identical to kernel.Lookup(view, batch) — the policy
// only changes when candidate buckets are prefetched, never what is
// compared. Returns the number of keys found; maintains batch.stats
// (including prefetch_groups) when present.
//
// batch.key_bits/val_bits may be 0 (untyped legacy callers); the engine
// fills them from view.spec before slicing.
std::uint64_t PipelinedLookup(const KernelInfo& kernel, const TableView& view,
                              const ProbeBatch& batch,
                              const PipelineConfig& config);

}  // namespace simdht

#endif  // SIMDHT_SIMD_PIPELINE_H_
