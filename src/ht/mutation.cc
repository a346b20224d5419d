#include "ht/mutation.h"

#include <cstring>

namespace simdht {

namespace {

// Scalar twin of the cuckoo scans: locates keys through the TableView
// accessors, so one loop serves both bucket layouts and every key and value
// width. It reads nothing outside the candidate buckets' key lanes.
template <typename K>
CuckooScan ScalarCuckooScan(const TableView& view,
                            const std::uint32_t* candidates,
                            std::uint64_t key) {
  CuckooScan r;
  const K probe = static_cast<K>(key);
  const unsigned m = view.spec.slots;
  for (unsigned w = 0; w < view.spec.ways; ++w) {
    for (unsigned s = 0; s < m; ++s) {
      K k;
      std::memcpy(&k, view.key_ptr(candidates[w], s), sizeof(K));
      const std::uint32_t bit = std::uint32_t{1} << (w * m + s);
      if (k == probe) r.match |= bit;
      if (k == static_cast<K>(kEmptyKey)) r.empty |= bit;
    }
  }
  return r;
}

CuckooScanFn ScalarCuckooScanFor(const LayoutSpec& spec) {
  switch (spec.key_bits) {
    case 16:
      return &ScalarCuckooScan<std::uint16_t>;
    case 32:
      return &ScalarCuckooScan<std::uint32_t>;
    default:
      return &ScalarCuckooScan<std::uint64_t>;
  }
}

}  // namespace

void AppendScalarMutationKernels(std::vector<MutationKernel>* out) {
  MutationKernel cuckoo;
  cuckoo.name = "MutScan-Scalar/cuckoo";
  cuckoo.level = SimdLevel::kScalar;
  cuckoo.cuckoo_scan_for = &ScalarCuckooScanFor;
  out->push_back(cuckoo);
}

MutationRegistry::MutationRegistry() {
  // Scalar twin, then per-ISA scans; selection prefers the highest tier.
  AppendScalarMutationKernels(&kernels_);
  AppendSseMutationKernels(&kernels_);
  AppendAvx2MutationKernels(&kernels_);
}

const MutationRegistry& MutationRegistry::Get() {
  static const MutationRegistry registry;
  return registry;
}

const MutationKernel* MutationRegistry::ForCuckoo() const {
  const CpuFeatures& cpu = GetCpuFeatures();
  const MutationKernel* best = nullptr;
  for (const MutationKernel& k : kernels_) {
    if (!cpu.Supports(k.level)) continue;
    if (best == nullptr || k.level > best->level) best = &k;
  }
  return best;
}

const MutationKernel* MutationRegistry::ByName(const std::string& name) const {
  for (const MutationKernel& k : kernels_) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

}  // namespace simdht
