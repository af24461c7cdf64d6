// gauge.hpp - A fixed kernel that gauges the host's speed.
//
// A shared host runs the same code 20-40% slower for seconds to minutes at
// a time. The timed rounds run this kernel just before every world and
// take the world's time in units of the kernel's, which cancels most of
// that drift. The kernel is the benchmark's own code on the standard
// library alone (hashing, node allocation, cache misses: of the simple
// kernels tried, the one whose slow spells track the simulator's best), so
// a change to the simulator never changes it.
#pragma once

namespace perfbench {

/// Seconds the kernel takes now (~0.85 ms on the reference host).
[[nodiscard]] double gauge_seconds();

/// gauge_seconds() on the reference host (4-core x86-64 VM, GCC 12 -O3):
/// normalized world times are turned back into seconds at this speed.
inline constexpr double kReferenceGaugeS = 8.5e-4;

}  // namespace perfbench
