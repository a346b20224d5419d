// Type-erased batched-lookup kernel interface and registry.
//
// Every lookup algorithm the suite evaluates — scalar twins, horizontal
// (Algo 1) and vertical (Algo 2) cuckoo vectorizations, Swiss control-byte
// scans, at each vector width — is a free function with the same signature,
// registered with metadata describing which table family and layouts it
// probes and which CPU ISA tier it needs. The validation engine
// (src/core/validation.h) joins this registry against a workload's LayoutSpec
// and the host CPUID to produce the paper's "viable design choices" list.
//
// Batched probes travel as a ProbeBatch view: key/val spans, found bytes,
// and a prefetch distance. KernelInfo::Lookup is the one batched-lookup
// entry point; every kernel implements the native ProbeBatch LookupFn
// signature. There is one probe schedule: a kernel that prefetches does so
// inside its own compare loop, `prefetch_distance` keys ahead (the scalar
// cuckoo twin and the horizontal kernels); the vertical and Swiss kernels
// run direct and ignore the distance.
//
// Registration is open: a translation unit contributes kernels by calling
// RegisterKernelProvider() before the first KernelRegistry::Get() — no edit
// to this header is needed to add a new family. The built-in providers are
// referenced from kernel_providers.cc so static-archive linking keeps them.
#ifndef SIMDHT_SIMD_KERNEL_H_
#define SIMDHT_SIMD_KERNEL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/compiler.h"
#include "common/cpu_features.h"
#include "ht/layout.h"

namespace simdht {

// One 8-byte bucket-arena load, for the vertical kernels' scalar tails.
// Batched readers of a seqlocked table race writers by design — a rebuild
// copies the whole arena under them — and discard any batch whose write
// epoch moved, so the result of this read is validated (see
// common/compiler.h for the SIMDHT_NO_TSAN rule).
SIMDHT_NO_TSAN inline std::uint64_t LoadArenaWord(const void* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// Keys ahead of the compare loop whose candidate buckets a batched lookup
// prefetches: the distance every library read path (SimdHashTable::BatchGet,
// the KVS backend's Multi-Get) hands its kernel. The read-side twin of
// kCuckooWritePrefetchDistance (ht/mutation.h); the bench binaries and the
// CLI sweep it with --prefetch-distance.
inline constexpr unsigned kProbePrefetchDistance = 32;

// One batched probe request: n keys in, n values and n found bytes out.
// Non-owning view; the caller keeps the spans alive for the call.
//   keys:  n keys, element width = the table's key width
//   vals:  n values (the table's value width); entry i is written with the
//          payload when found, 0 otherwise
//   found: n bytes, 1 if keys[i] was found
struct ProbeBatch {
  const void* keys = nullptr;
  void* vals = nullptr;
  std::uint8_t* found = nullptr;
  std::size_t size = 0;
  // Keys ahead of key i whose candidate buckets a kernel that prefetches
  // inside its own loop (the scalar cuckoo twin, the horizontal kernels)
  // fetches right before comparing key i; 0 = no prefetching. Any value is
  // legal; the vertical and Swiss kernels ignore it.
  unsigned prefetch_distance = 0;

  // Builds a batch view over caller-owned spans.
  template <typename K, typename V>
  static ProbeBatch Of(const K* keys, V* vals, std::uint8_t* found,
                       std::size_t n, unsigned prefetch_distance = 0) {
    ProbeBatch batch;
    batch.keys = keys;
    batch.vals = vals;
    batch.found = found;
    batch.size = n;
    batch.prefetch_distance = prefetch_distance;
    return batch;
  }

  template <typename K>
  const K* keys_as() const {
    return static_cast<const K*>(keys);
  }
  template <typename V>
  V* vals_as() const {
    return static_cast<V*>(vals);
  }
};

// Batched lookup over a ProbeBatch; returns the number of keys found. The
// one and only kernel entry-point signature.
using LookupFn = std::uint64_t (*)(const TableView& view,
                                   const ProbeBatch& batch);

// Registry entry: one lookup algorithm specialization.
struct KernelInfo {
  std::string name;          // e.g. "V-Hor/AVX2/k32v32", "Swiss/AVX2/k32v32"
  TableFamily family = TableFamily::kCuckoo;  // which tables it can probe
  Approach approach = Approach::kScalar;
  SimdLevel level = SimdLevel::kScalar;  // ISA requirement
  unsigned width_bits = 64;  // vector width the kernel uses
  unsigned key_bits = 32;
  unsigned val_bits = 32;
  BucketLayout bucket_layout = BucketLayout::kInterleaved;
  // Cuckoo: horizontal kernels handle any m, vertical kernels require
  // m == 1, vertical-over-BCHT (Case Study 5) requires m > 1. Swiss:
  // kernels scan the control lane at width_bits / 8 slots per window.
  LookupFn fn = nullptr;

  // The one batched-lookup entry point: runs the kernel over `batch`, then
  // probes the table's overflow stash for whatever the bucket pass missed —
  // so stash entries are visible through every kernel (scalar and SIMD)
  // without each kernel knowing the stash exists.
  std::uint64_t Lookup(const TableView& view, const ProbeBatch& batch) const {
    std::uint64_t found = fn(view, batch);
    if (view.stash_count != 0) {
      found += ProbeStash(view, batch.keys, batch.vals, batch.found,
                          batch.size);
    }
    return found;
  }

  // True if this kernel can run lookups against `spec` (family match first,
  // then the structural match: key/value widths, bucket layout, slots
  // constraint).
  bool Matches(const LayoutSpec& spec) const;
};

// Registry query: which kernels can serve this layout? The layout's family
// participates in matching, so cuckoo queries never see Swiss kernels and
// vice versa.
struct KernelQuery {
  LayoutSpec layout;
  Approach approach = Approach::kScalar;
  unsigned width_bits = 0;           // exact vector width; 0 = any
  bool include_unsupported = false;  // admit kernels this CPU cannot run
};

// A provider appends its KernelInfo entries to `out`; the registry invokes
// every registered provider exactly once while building.
using KernelProviderFn = void (*)(std::vector<KernelInfo>* out);

// Open registration hook: queues `provider` for the registry build. Returns
// true if queued, false if the registry was already built (the provider
// will never run — register from static initializers or before the first
// KernelRegistry::Get()). Idempotent per function pointer.
bool RegisterKernelProvider(KernelProviderFn provider);

// Process-wide kernel registry. Thread-safe for reads after the first call;
// all registration happens inside the constructor, which drains the
// provider queue (built-ins first, in registration order).
class KernelRegistry {
 public:
  static const KernelRegistry& Get();

  const std::vector<KernelInfo>& all() const { return kernels_; }

  // Kernels usable for `query.layout` on this CPU, filtered by approach
  // and optionally by exact vector width.
  std::vector<const KernelInfo*> Find(const KernelQuery& query) const;

  // The scalar twin for a spec (never null for supported family/key/val
  // combos; null if the spec itself is unsupported).
  const KernelInfo* Scalar(const LayoutSpec& spec) const;

  // Exact-name lookup (for tests / CLI selection); null if absent.
  const KernelInfo* ByName(const std::string& name) const;

 private:
  KernelRegistry();

  std::vector<KernelInfo> kernels_;
};

// Queues the built-in per-ISA providers (kernel_providers.cc). Safe to call
// repeatedly; the registry constructor calls it before draining the queue,
// and the hard reference from that TU keeps the per-ISA objects alive under
// static-archive linking.
void RegisterBuiltinKernelProviders();

// --- Capacity helpers (shared with the validation engine) ---

// Horizontal: how many whole buckets fit into a `width_bits` vector for
// `spec` (the paper's Buckets-Per-Vector). 0 = the bucket does not fit.
// A bucket's comparable block is the full bucket for interleaved layout and
// the key block for split layout. Multi-bucket probes need >= 256-bit
// vectors (two half-vector loads); the result is capped at min(2, N).
unsigned HorizontalBucketsPerVector(const LayoutSpec& spec,
                                    unsigned width_bits);

// Vertical: keys probed per iteration (the paper's Keys-Per-Iteration).
// 0 = not vectorizable at this width (needs hardware gathers: >= 256-bit,
// and key width must be gatherable: 32 or 64 bits, key_bits == val_bits).
unsigned VerticalKeysPerIteration(const LayoutSpec& spec,
                                  unsigned width_bits);

// Swiss: control bytes (slot candidates) scanned per vector window — one
// byte per slot, so width_bits / 8. 0 for non-Swiss specs or widths below
// one 16-slot group.
unsigned SwissSlotsPerVector(const LayoutSpec& spec, unsigned width_bits);

}  // namespace simdht

#endif  // SIMDHT_SIMD_KERNEL_H_
