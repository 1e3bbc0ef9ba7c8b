// Size-tracking global operator new/delete. Each block is over-allocated
// by a 16-byte header holding its size, so delete subtracts exactly what
// new added; the header keeps user pointers 16-byte aligned (the glibc
// malloc alignment). The benchmark is single-threaded, but the counters
// are atomics so library threads could never corrupt them.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench.h"

namespace {

constexpr std::size_t kHeaderSize = 16;
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

void* TrackedNew(std::size_t size) {
  void* base = std::malloc(size + kHeaderSize);
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &size, sizeof(size));
  const std::uint64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(base) + kHeaderSize;
}

void TrackedDelete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeaderSize;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof(size));
  g_live.fetch_sub(size, std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

void* operator new(std::size_t size) { return TrackedNew(size); }
void* operator new[](std::size_t size) { return TrackedNew(size); }
void operator delete(void* p) noexcept { TrackedDelete(p); }
void operator delete[](void* p) noexcept { TrackedDelete(p); }
void operator delete(void* p, std::size_t) noexcept { TrackedDelete(p); }
void operator delete[](void* p, std::size_t) noexcept { TrackedDelete(p); }

namespace perfbench::heap {

uint64_t Live() { return g_live.load(std::memory_order_relaxed); }

void ResetPeak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

uint64_t Peak() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace perfbench::heap
