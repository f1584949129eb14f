#include "alloc_probe.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long> g_allocations{0};
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen && !g_largest.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace gc::test {

long allocation_count() { return g_allocations.load(); }

std::size_t largest_allocation() { return g_largest.load(); }

void reset_largest_allocation() { g_largest.store(0); }

}  // namespace gc::test

// noinline keeps GCC from inlining the malloc/free pairs into callers'
// new-expressions, where -Wmismatched-new-delete mis-pairs them.
__attribute__((noinline)) void* operator new(std::size_t size) {
  return counted_alloc(size);
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return counted_alloc(size);
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}
