// alloc_count.hpp — heap bytes and allocations requested from operator new
// while one function runs, for the exact *_bytes and allocation counters of
// the micro suites.
//
// Replaces the global operator new and delete, so include it from exactly
// one translation unit of a benchmark binary. Counting costs one relaxed
// load per allocation while off.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace tcsa_bench {

inline std::atomic<bool> g_count_allocations{false};
inline std::atomic<std::size_t> g_allocated_bytes{0};
inline std::atomic<std::size_t> g_allocations{0};

/// What one run of a function allocated, on every thread (freed or not).
struct Allocations {
  double bytes = 0.0;
  double calls = 0.0;  ///< operator new calls
};

template <class Fn>
Allocations allocations(Fn&& fn) {
  g_allocated_bytes.store(0, std::memory_order_relaxed);
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  fn();
  g_count_allocations.store(false, std::memory_order_relaxed);
  return {static_cast<double>(g_allocated_bytes.load(std::memory_order_relaxed)),
          static_cast<double>(g_allocations.load(std::memory_order_relaxed))};
}

/// Bytes `fn` allocates (freed or not), counted in one run.
template <class Fn>
double allocated_bytes(Fn&& fn) {
  return allocations(fn).bytes;
}

}  // namespace tcsa_bench

// Out of line, so no caller sees free() meet a pointer from `new`.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (tcsa_bench::g_count_allocations.load(std::memory_order_relaxed)) {
    tcsa_bench::g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    tcsa_bench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
