// counting_new.hpp - Heap allocations counted across one call.
//
// counting_new.cpp replaces the global operator new / delete of the test
// program so that every allocation bumps one counter; allocations_in(fn)
// reads the counter before and after a call. Zero-allocation tests measure
// a warmed hot path this way. Every suite of the program shares the
// counting allocator, but a reading is the delta across `fn`, so
// allocations outside the measured window (gtest bookkeeping, setup, other
// suites) leave it alone.
#pragma once

#include <atomic>
#include <cstddef>

namespace ecs::test {

/// Allocations made by the program so far (defined in counting_new.cpp).
extern std::atomic<std::size_t> g_alloc_calls;

/// Heap allocations made while `fn` runs.
template <class Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_alloc_calls.load(std::memory_order_relaxed);
  fn();
  return g_alloc_calls.load(std::memory_order_relaxed) - before;
}

}  // namespace ecs::test
