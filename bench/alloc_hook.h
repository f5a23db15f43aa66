// Counting global operator new/delete hook for wall-clock benchmarks and
// allocation-regression tests.
//
// Usage: exactly ONE translation unit in the binary defines
// BIONICDB_ALLOC_HOOK_DEFINE before including this header; that TU provides
// the replacement global allocation functions. Every TU may include the
// header to read the counters. The hook counts *all* allocations in the
// process (including gtest internals), so measurements must
// snapshot the counter around the region of interest.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace bionicdb::bench {

/// Total calls to any allocating operator new since process start.
inline std::atomic<uint64_t> g_alloc_count{0};
/// Total bytes requested from any allocating operator new.
inline std::atomic<uint64_t> g_alloc_bytes{0};

inline uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
inline uint64_t AllocBytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

}  // namespace bionicdb::bench

#ifdef BIONICDB_ALLOC_HOOK_DEFINE

namespace bionicdb::bench::detail {

inline void* CountedAlloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  std::abort();  // exception-free codebase: OOM is fatal
}

inline void* CountedAllocAligned(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) return p;
  std::abort();
}

}  // namespace bionicdb::bench::detail

void* operator new(std::size_t n) {
  return bionicdb::bench::detail::CountedAlloc(n);
}
void* operator new[](std::size_t n) {
  return bionicdb::bench::detail::CountedAlloc(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return bionicdb::bench::detail::CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return bionicdb::bench::detail::CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return bionicdb::bench::detail::CountedAllocAligned(
      n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return bionicdb::bench::detail::CountedAllocAligned(
      n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // BIONICDB_ALLOC_HOOK_DEFINE
