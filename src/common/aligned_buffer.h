// Cache-line-aligned, zero-initialized heap buffer for hash table storage.
//
// SIMD kernels load full vectors starting at arbitrary bucket offsets, so the
// buffer guarantees (a) 64-byte alignment and (b) a 64-byte tail pad so a
// 512-bit load at the last bucket never touches an unmapped page.
//
// Allocations of 2 MiB or more are mmap'ed 2 MiB-aligned and marked
// MADV_HUGEPAGE: out-of-LLC tables are probed at random, so on 4 KiB pages
// every lookup is also a dTLB miss — which both adds a page walk to the
// demand load and causes the CPU to drop the batched lookup kernels'
// software prefetches (ProbeBatch::prefetch_distance in simd/kernel.h).
// Huge pages keep the whole table under a handful of dTLB entries.
#ifndef SIMDHT_COMMON_ALIGNED_BUFFER_H_
#define SIMDHT_COMMON_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/compiler.h"

namespace simdht {

inline constexpr std::size_t kHugePageBytes = 2u << 20;

class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t bytes) { Allocate(bytes); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)),
        mapped_bytes_(std::exchange(other.mapped_bytes_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
      mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { Free(); }

  void Allocate(std::size_t bytes) {
    Free();
    bytes_ = bytes;
    const std::size_t padded =
        RoundUpPow2(bytes, kCacheLineBytes) + kCacheLineBytes;
    if (padded >= kHugePageBytes) {
      const std::size_t map_bytes = RoundUpPow2(padded, kHugePageBytes);
      data_ = MapHuge(map_bytes);
      if (data_ != nullptr) {  // fresh anonymous pages are already zero
        mapped_bytes_ = map_bytes;
        return;
      }
    }
    data_ = static_cast<std::uint8_t*>(
        std::aligned_alloc(kCacheLineBytes, padded));
    if (data_ == nullptr) throw std::bad_alloc();
    std::memset(data_, 0, padded);
  }

  void Zero() {
    if (data_ != nullptr) {
      std::memset(data_, 0,
                  RoundUpPow2(bytes_, kCacheLineBytes) + kCacheLineBytes);
    }
  }

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return bytes_; }
  bool empty() const { return bytes_ == 0; }

  template <typename T>
  T* as() { return reinterpret_cast<T*>(data_); }
  template <typename T>
  const T* as() const { return reinterpret_cast<const T*>(data_); }

 private:
  // 2 MiB-aligned anonymous mapping backed by huge pages when the system
  // provides them. Returns nullptr on any failure (caller falls back to
  // aligned_alloc).
  static std::uint8_t* MapHuge(std::size_t map_bytes) {
#if defined(__linux__)
#if defined(MAP_HUGETLB)
    // Preferred: explicit hugetlb pages (reserve with
    // `sysctl vm.nr_hugepages=N`, 2 MiB each). Reservation happens at mmap
    // time, so an exhausted pool fails here instead of faulting later.
    void* pooled = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (pooled != MAP_FAILED) return static_cast<std::uint8_t*>(pooled);
#endif
    // Else transparent huge pages: over-map so a 2 MiB-aligned sub-range
    // always exists, then trim the unaligned head/tail — an unaligned VMA
    // would get a 4 KiB head plus huge middle instead of huge pages
    // throughout.
    void* raw = mmap(nullptr, map_bytes + kHugePageBytes,
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
    if (raw == MAP_FAILED) return nullptr;
    const auto addr = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = RoundUpPow2(addr, kHugePageBytes);
    if (aligned != addr) munmap(raw, aligned - addr);
    const std::uintptr_t raw_end = addr + map_bytes + kHugePageBytes;
    if (aligned + map_bytes != raw_end) {
      munmap(reinterpret_cast<void*>(aligned + map_bytes),
             raw_end - (aligned + map_bytes));
    }
    auto* data = reinterpret_cast<std::uint8_t*>(aligned);
#if defined(MADV_HUGEPAGE)
    madvise(data, map_bytes, MADV_HUGEPAGE);
#endif
    return data;
#else
    (void)map_bytes;
    return nullptr;
#endif
  }

  void Free() {
#if defined(__linux__)
    if (mapped_bytes_ != 0) {
      munmap(data_, mapped_bytes_);
      data_ = nullptr;
      bytes_ = 0;
      mapped_bytes_ = 0;
      return;
    }
#endif
    std::free(data_);
    data_ = nullptr;
    bytes_ = 0;
  }

  std::uint8_t* data_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t mapped_bytes_ = 0;  // nonzero: data_ is a MapHuge mapping
};

}  // namespace simdht

#endif  // SIMDHT_COMMON_ALIGNED_BUFFER_H_
