// counting_new.hpp - A counting global allocator for a test binary.
//
// Replaces the global operator new / delete so that every allocation in
// the binary bumps one counter; allocations_in(fn) reads the count across
// a call. Zero-allocation tests measure a warmed hot path this way, and
// everything outside the measured window (gtest bookkeeping, setup) leaves
// the result alone.
//
// The replacement functions are defined here, not declared: include this
// header from exactly one source file of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace ecs::test {

inline std::atomic<std::size_t> g_alloc_calls{0};

inline void* counted_alloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Heap allocations made while `fn` runs.
template <class Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_alloc_calls.load(std::memory_order_relaxed);
  fn();
  return g_alloc_calls.load(std::memory_order_relaxed) - before;
}

}  // namespace ecs::test

void* operator new(std::size_t size) {
  return ecs::test::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return ecs::test::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return ecs::test::counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ecs::test::counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ecs::test::g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ecs::test::g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
