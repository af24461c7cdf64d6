// time.hpp - Continuous simulated time and epsilon-aware comparisons.
//
// The simulator works in continuous time represented by `double`. All
// comparisons that decide scheduling structure (interval disjointness,
// precedence, completion detection) go through the tolerant helpers below so
// that accumulated floating-point error never produces spurious constraint
// violations or missed events.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

namespace ecs {

/// Simulated time, in abstract time units (the paper's unit-speed cloud
/// processor executes one unit of work per unit of time).
using Time = double;

/// Positive infinity, used for "no next event".
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Relative tolerance for time comparisons (scaled by operand magnitude in
/// time_tolerance, with an absolute floor of the same value). Doubles carry
/// ~1e-16 relative precision and the engine's arithmetic accumulates at most
/// a few ulps per event, so 1e-9 comfortably absorbs rounding while staying
/// far below any schedulable duration — even at horizons of 1e7 time units
/// the tolerance is only 1e-2. (An earlier 1e-6 value let jobs release
/// measurably early late in long simulations.)
inline constexpr double kTimeEpsilon = 1e-9;

/// Tolerance scaled to the magnitude of the operands.
[[nodiscard]] inline double time_tolerance(Time a, Time b) noexcept {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return kTimeEpsilon * scale;
}

[[nodiscard]] inline bool time_eq(Time a, Time b) noexcept {
  return std::fabs(a - b) <= time_tolerance(a, b);
}

[[nodiscard]] inline bool time_lt(Time a, Time b) noexcept {
  return a < b - time_tolerance(a, b);
}

[[nodiscard]] inline bool time_le(Time a, Time b) noexcept {
  return a <= b + time_tolerance(a, b);
}

[[nodiscard]] inline bool time_gt(Time a, Time b) noexcept {
  return time_lt(b, a);
}

[[nodiscard]] inline bool time_ge(Time a, Time b) noexcept {
  return time_le(b, a);
}

/// Margin the scheduling policies demand before treating one option as
/// strictly better than another. Deliberately much coarser than
/// kTimeEpsilon: sub-1e-6 differences between completion-time estimates are
/// projection noise, and switching on them would discard progress through
/// the re-execution rule for no real gain.
inline constexpr double kDecisionMargin = 1e-6;

/// Tolerance for *amounts* (remaining work / communication): the engine
/// declares an activity complete once its remaining amount drops to this.
/// It is not tied to kTimeEpsilon (which is smaller); the validator's
/// quantity checks accept the resulting shortfall through their own slack,
/// kQuantitySlack = 10 * kAmountEpsilon (core/validate.cpp).
inline constexpr double kAmountEpsilon = 1e-7;

/// True when a remaining amount of work/communication is exhausted.
[[nodiscard]] inline bool amount_done(double remaining) noexcept {
  return remaining <= kAmountEpsilon;
}

/// Clamps tiny negative residue (from subtraction of elapsed time) to zero.
[[nodiscard]] inline double clamp_amount(double remaining) noexcept {
  return remaining < 0.0 ? 0.0 : remaining;
}

}  // namespace ecs
