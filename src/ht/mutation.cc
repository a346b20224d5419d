#include "ht/mutation.h"

#include <cstring>

namespace simdht {

namespace {

// Scalar twins: locate keys through the TableView accessors, so one
// template serves both bucket layouts and every value width.
template <typename K>
BucketScan ScalarBucketScan(const TableView& view, std::uint64_t b,
                            std::uint64_t key) {
  BucketScan r;
  const K probe = static_cast<K>(key);
  const unsigned slots = view.spec.slots;
  for (unsigned s = 0; s < slots; ++s) {
    K k;
    std::memcpy(&k, view.key_ptr(b, s), sizeof(K));
    if (r.match_slot < 0 && k == probe) r.match_slot = static_cast<int>(s);
    if (r.empty_slot < 0 && k == static_cast<K>(kEmptyKey)) {
      r.empty_slot = static_cast<int>(s);
    }
  }
  return r;
}

GroupScan ScalarGroupScan(const std::uint8_t* ctrl, std::uint8_t h2) {
  GroupScan r;
  for (unsigned s = 0; s < kSwissGroupSlots; ++s) {
    const std::uint8_t c = ctrl[s];
    if (c == h2) r.match_mask |= 1u << s;
    if (c == kCtrlEmpty) r.empty_mask |= 1u << s;
    if (c == kCtrlEmpty || c == kCtrlTombstone) r.free_mask |= 1u << s;
  }
  return r;
}

MutationKernel ScalarCuckoo(const char* name, unsigned key_bits,
                            BucketScanFn fn) {
  MutationKernel k;
  k.name = name;
  k.family = TableFamily::kCuckoo;
  k.level = SimdLevel::kScalar;
  k.key_bits = key_bits;
  k.bucket_scan = fn;
  return k;
}

}  // namespace

void AppendScalarMutationKernels(std::vector<MutationKernel>* out) {
  out->push_back(
      ScalarCuckoo("MutScan-Scalar/k16", 16, &ScalarBucketScan<std::uint16_t>));
  out->push_back(
      ScalarCuckoo("MutScan-Scalar/k32", 32, &ScalarBucketScan<std::uint32_t>));
  out->push_back(
      ScalarCuckoo("MutScan-Scalar/k64", 64, &ScalarBucketScan<std::uint64_t>));
  MutationKernel swiss;
  swiss.name = "MutScan-Scalar/ctrl";
  swiss.family = TableFamily::kSwiss;
  swiss.level = SimdLevel::kScalar;
  swiss.group_scan = &ScalarGroupScan;
  out->push_back(swiss);
}

MutationRegistry::MutationRegistry() {
  // Scalar twins, then per-ISA scans; selection prefers the highest tier.
  AppendScalarMutationKernels(&kernels_);
  AppendSseMutationKernels(&kernels_);
  AppendAvx2MutationKernels(&kernels_);
}

const MutationRegistry& MutationRegistry::Get() {
  static const MutationRegistry registry;
  return registry;
}

const MutationKernel* MutationRegistry::ForCuckoo(
    const LayoutSpec& spec) const {
  const CpuFeatures& cpu = GetCpuFeatures();
  const MutationKernel* best = nullptr;
  for (const MutationKernel& k : kernels_) {
    if (!k.MatchesCuckoo(spec)) continue;
    if (!cpu.Supports(k.level)) continue;
    if (best == nullptr || k.level > best->level) best = &k;
  }
  return best;
}

const MutationKernel* MutationRegistry::ForSwiss() const {
  const CpuFeatures& cpu = GetCpuFeatures();
  const MutationKernel* best = nullptr;
  for (const MutationKernel& k : kernels_) {
    if (k.family != TableFamily::kSwiss || k.group_scan == nullptr) continue;
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
