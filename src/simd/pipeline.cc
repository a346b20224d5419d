#include "simd/pipeline.h"

#include <algorithm>
#include <cstring>

#include "simd/prefetch.h"

namespace simdht {
namespace {

// Prefetches all candidate buckets of keys [first, last).
template <typename K>
void PrefetchGroup(const TableView& view, const K* keys, std::size_t first,
                   std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    PrefetchCandidateBuckets<K>(view, keys[i]);
  }
}

// The prime/steady pipeline, shared by both policies: kGroup is simply
// depth == 1, kAmac keeps `depth` groups in flight. Group g+depth is
// prefetched right before the kernel consumes group g, so the schedule
// keeps a constant window of depth*group_size keys' worth of candidate
// lines outstanding.
template <typename K>
std::uint64_t RunPipeline(const KernelInfo& kernel, const TableView& view,
                          const ProbeBatch& batch, std::size_t group,
                          std::size_t depth) {
  const K* keys = batch.keys_as<K>();
  const std::size_t n = batch.size;

  // Prime: prefetch the first `depth` groups.
  const std::size_t primed = std::min(n, depth * group);
  PrefetchGroup<K>(view, keys, 0, primed);
  std::uint64_t groups_issued = (primed + group - 1) / group;

  std::uint64_t found = 0;
  for (std::size_t off = 0; off < n; off += group) {
    const std::size_t ahead = off + depth * group;
    if (ahead < n) {
      PrefetchGroup<K>(view, keys, ahead, std::min(n, ahead + group));
      ++groups_issued;
    }
    const std::size_t chunk = std::min(group, n - off);
    found += kernel.Lookup(view, batch.Slice(off, chunk));
  }
  if (batch.stats != nullptr) batch.stats->prefetch_groups += groups_issued;
  return found;
}

// Fused AMAC driver for the scalar probe loop.
//
// AMAC keeps a window of probes in flight, switching to another probe's
// work between memory touches. A cuckoo/BCHT probe has a one-hop dependent
// chain (hash -> candidate buckets, both computable from the key alone), so
// the state machine degenerates to a rotating window of `window` in-flight
// probes: issue both candidate-bucket prefetches for the probe entering the
// window, then complete the probe leaving it. That per-key interleave is
// what group bursts cannot express — bursts overrun the core's outstanding-
// miss buffers and get dropped, while one probe's worth of prefetch per
// compare step keeps a steady `window`-deep stream of misses in flight.
//
// Fusing requires owning the compare loop; its loop below replicates
// ScalarLookup (scalar_kernels.cc) exactly — the equivalence suite
// (tests/simd/test_pipeline.cc) holds it bit-identical to the kernel's
// direct output. The horizontal kernels fuse the same interleave into their
// own vector loops (simd/horizontal_impl.h); vertical and Swiss kernels take
// the windowed slice schedule.
template <typename K, typename V>
std::uint64_t RunFusedAmac(const TableView& view, const ProbeBatch& batch,
                           std::size_t window) {
  const K* keys = batch.keys_as<K>();
  auto* vals = batch.vals_as<V>();
  std::uint8_t* found = batch.found;
  const std::size_t n = batch.size;
  const unsigned ways = view.spec.ways;
  const unsigned slots = view.spec.slots;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + window < n) {
      PrefetchCandidateBuckets<K>(view, keys[i + window]);
    }
    const K key = keys[i];
    V value = 0;
    std::uint8_t hit = 0;
    for (unsigned way = 0; way < ways && !hit; ++way) {
      const std::uint32_t b = view.hash.template Bucket<K>(way, key);
      for (unsigned s = 0; s < slots; ++s) {
        K stored;
        std::memcpy(&stored, view.key_ptr(b, s), sizeof(K));
        if (stored == key) {
          std::memcpy(&value, view.val_ptr(b, s), sizeof(V));
          hit = 1;
          break;
        }
      }
    }
    vals[i] = value;
    found[i] = hit;
    hits += hit;
  }
  // The fused loop owns its own compare path (it never goes through
  // KernelInfo::Lookup), so it probes the overflow stash itself.
  if (view.stash_count != 0) {
    hits += ProbeStash(view, batch.keys, batch.vals, batch.found, batch.size);
  }
  if (batch.stats != nullptr) {
    batch.stats->lookups += n;
    batch.stats->hits += hits;
    batch.stats->kernel_calls += 1;
    batch.stats->prefetch_groups += (n + window - 1) / window;
  }
  return hits;
}

// (key_bits, val_bits) dispatch for the fused driver; returns false when no
// instantiation covers the combination (caller uses the slice schedule).
bool DispatchFusedAmac(const TableView& view, const ProbeBatch& batch,
                       std::size_t window, std::uint64_t* hits) {
  const unsigned kb = view.spec.key_bits;
  const unsigned vb = view.spec.val_bits;
  if (kb == 32 && vb == 32) {
    *hits = RunFusedAmac<std::uint32_t, std::uint32_t>(view, batch, window);
  } else if (kb == 64 && vb == 64) {
    *hits = RunFusedAmac<std::uint64_t, std::uint64_t>(view, batch, window);
  } else if (kb == 16 && vb == 32) {
    *hits = RunFusedAmac<std::uint16_t, std::uint32_t>(view, batch, window);
  } else {
    return false;
  }
  return true;
}

}  // namespace

const char* PrefetchPolicyName(PrefetchPolicy policy) {
  switch (policy) {
    case PrefetchPolicy::kNone:
      return "none";
    case PrefetchPolicy::kGroup:
      return "group";
    case PrefetchPolicy::kAmac:
      return "amac";
  }
  return "?";
}

bool ParsePrefetchPolicy(const std::string& name, PrefetchPolicy* out) {
  if (name == "none") {
    *out = PrefetchPolicy::kNone;
  } else if (name == "group") {
    *out = PrefetchPolicy::kGroup;
  } else if (name == "amac") {
    *out = PrefetchPolicy::kAmac;
  } else {
    return false;
  }
  return true;
}

std::string PipelineConfig::Describe() const {
  switch (policy) {
    case PrefetchPolicy::kNone:
      return "direct";
    case PrefetchPolicy::kGroup:
      return "group:" + std::to_string(group_size);
    case PrefetchPolicy::kAmac:
      return "amac:" + std::to_string(amac_groups) + "x" +
             std::to_string(group_size);
  }
  return "?";
}

bool PipelineConfig::Validate(std::string* why) const {
  if (policy != PrefetchPolicy::kNone && group_size == 0) {
    if (why != nullptr) *why = "group_size must be >= 1";
    return false;
  }
  if (policy == PrefetchPolicy::kAmac && amac_groups == 0) {
    if (why != nullptr) *why = "amac_groups must be >= 1";
    return false;
  }
  return true;
}

std::uint64_t PipelinedLookup(const KernelInfo& kernel, const TableView& view,
                              const ProbeBatch& batch,
                              const PipelineConfig& config) {
  // Normalize an untyped batch: Slice() and the key loads below need the
  // span element widths, which for a kernel call always match the table's.
  ProbeBatch typed = batch;
  if (typed.key_bits == 0) typed.key_bits = view.spec.key_bits;
  if (typed.val_bits == 0) typed.val_bits = view.spec.val_bits;
  typed.prefetch_distance = 0;

  if (config.policy == PrefetchPolicy::kNone || typed.size == 0) {
    return kernel.Lookup(view, typed);
  }

  const std::size_t group = config.group_size;

  // Horizontal cuckoo kernels prefetch inside their own compare loop: one
  // call over the whole batch, `group_size` keys ahead, under both policies.
  // Each group_size-key window counts as one prefetch group.
  if (kernel.approach == Approach::kHorizontal &&
      view.spec.family == TableFamily::kCuckoo) {
    typed.prefetch_distance = config.group_size;
    const std::uint64_t hits = kernel.Lookup(view, typed);
    if (typed.stats != nullptr) {
      typed.stats->prefetch_groups += (typed.size + group - 1) / group;
    }
    return hits;
  }

  const std::size_t depth =
      config.policy == PrefetchPolicy::kAmac ? config.amac_groups : 1;

  // AMAC on the scalar twin: fully fused per-key interleave, window =
  // amac_groups x group_size probes in flight. The fused loop replicates
  // the *cuckoo* scalar probe, so other families (Swiss) take the slice
  // schedule below even under kAmac.
  if (config.policy == PrefetchPolicy::kAmac &&
      kernel.approach == Approach::kScalar &&
      view.spec.family == TableFamily::kCuckoo) {
    std::uint64_t hits = 0;
    if (DispatchFusedAmac(view, typed, group * depth, &hits)) return hits;
  }

  switch (view.spec.key_bits) {
    case 16:
      return RunPipeline<std::uint16_t>(kernel, view, typed, group, depth);
    case 32:
      return RunPipeline<std::uint32_t>(kernel, view, typed, group, depth);
    case 64:
      return RunPipeline<std::uint64_t>(kernel, view, typed, group, depth);
    default:
      return kernel.Lookup(view, typed);
  }
}

}  // namespace simdht
