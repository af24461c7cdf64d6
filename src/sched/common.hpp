// common.hpp - Shared helpers for the scheduling policies.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/projection.hpp"

namespace ecs {

/// True when the event batch contains a job release.
[[nodiscard]] bool contains_release(const std::vector<Event>& events);

/// A job with its ordering key (deadline for SSF-EDF, release for FCFS).
struct OrderedJob {
  JobId id = -1;
  double key = 0.0;
};

/// Sorts by (key, id) — the canonical tie-break every ordered pass uses,
/// so decide() and feasibility probes can never disagree on ordering.
void sort_ordered(std::vector<OrderedJob>& order);

/// Fastest cloud still marked free in `cloud_free`, preferring clouds
/// available right now; clouds inside an availability outage serve only as
/// a fallback when nothing else is free. Returns -1 when no cloud is free.
/// Shared by the Greedy and SRPT pick loops.
[[nodiscard]] int pick_fresh_cloud(const SimView& view,
                                   const std::vector<char>& cloud_free);

/// One live job with its uncontended completion estimates, cached for the
/// Greedy and SRPT pick loops: each (job, target) estimate is computed once
/// per decide(), not once per scan of the candidates.
struct PickOption {
  JobFields f;
  Time keep = kTimeInfinity;   ///< continue on f.alloc (also as kTargetKeep)
  Time edge = kTimeInfinity;   ///< restart on the origin edge
  Time fresh = kTimeInfinity;  ///< restart on cloud `fresh_cloud`
  int fresh_cloud = -1;        ///< cloud `fresh` holds; -1: not computed
};

/// Fills `out` with the live jobs in live-set order, each with its keep
/// estimate (when allocated) and its edge estimate (when not on the edge).
/// Fresh-cloud estimates are left to fresh_estimate().
void snapshot_pick_options(const SimView& view, std::vector<PickOption>& out);

/// Uncontended completion of a fresh restart on `cloud`, recomputed only
/// when `cloud` is not the one cached — i.e. after the fastest free cloud
/// changed.
[[nodiscard]] inline Time fresh_estimate(const SimView& view,
                                         PickOption& option, int cloud) {
  if (option.fresh_cloud != cloud) {
    option.fresh =
        uncontended_completion(view.instance(), option.f, cloud, view.now());
    option.fresh_cloud = cloud;
  }
  return option.fresh;
}

/// Exponential doubling followed by bisection for the smallest stretch
/// accepted by `feasible`, starting from the lower bound `lo`, to relative
/// precision `epsilon`, spending at most `max_iterations` probes overall.
/// Returns the smallest stretch that was actually verified feasible (if the
/// doubling phase exhausts the probe budget, the last — largest — probe is
/// returned even if unverified; callers treat the result as best-effort).
/// Shared by SSF-EDF and Edge-Only. A template (not std::function) so the
/// zero-allocation decide() paths never pay a closure heap allocation.
template <typename FeasibleFn>
[[nodiscard]] double min_feasible_stretch(double lo, double epsilon,
                                          int max_iterations,
                                          FeasibleFn&& feasible) {
  double hi = std::max(lo, 1.0);
  int iterations = 0;
  while (!feasible(hi) && iterations < max_iterations) {
    hi *= 2.0;
    ++iterations;
  }
  double best = hi;
  double cursor = lo;
  while ((best - cursor) > epsilon * best && iterations < max_iterations) {
    const double mid = 0.5 * (cursor + best);
    if (feasible(mid)) {
      best = mid;
    } else {
      cursor = mid;
    }
    ++iterations;
  }
  return best;
}

/// Warm-started variant of min_feasible_stretch, bit-compatible with the
/// cold search: it returns the exact value the cold search would (same
/// bracket, same midpoint sequence, same probe budget accounting) while
/// usually spending far fewer probes on the doubling phase.
///
/// The cold search scans the rung ladder hi = base * 2^k (base =
/// max(lo, 1.0)) upward from k = 0 for the first feasible rung, paying one
/// probe per rung. The warm search instead jumps to the rung suggested by
/// `warm_hint` (the previous search's result — target stretches drift
/// slowly between consecutive releases) and walks down while the rung below
/// stays feasible, or up until a rung is feasible. Because feasibility is
/// monotone along the ladder (the property the bisection itself relies on),
/// both scans identify the same rung k*; rung values are exact (multiplying
/// by 2.0 is exact in binary floating point), and the bisection is then
/// entered with iterations = k* — exactly the number of failed probes the
/// cold doubling phase would have consumed — so the midpoint sequence and
/// the budget cutoff match the cold search bit for bit. `warm_hint <= 0`
/// (no previous search) falls back to the cold ladder scan.
template <typename FeasibleFn>
[[nodiscard]] double min_feasible_stretch_warm(double lo, double epsilon,
                                               int max_iterations,
                                               double warm_hint,
                                               FeasibleFn&& feasible) {
  const double base = std::max(lo, 1.0);
  int k = 0;         // first-feasible rung index (== cold's failed probes)
  double hi = base;  // rung(k)
  if (warm_hint <= 0.0) {
    // Cold ladder scan (identical to min_feasible_stretch's first loop).
    while (!feasible(hi) && k < max_iterations) {
      hi *= 2.0;
      ++k;
    }
  } else {
    // Start at the rung covering the hint: smallest k with rung(k) >= hint.
    while (hi < warm_hint && k < max_iterations) {
      hi *= 2.0;
      ++k;
    }
    if (k < max_iterations && feasible(hi)) {
      // Walk down: k* is the lowest feasible rung.
      while (k > 0) {
        const double below = 0.5 * hi;  // exact: rung(k-1)
        if (!feasible(below)) break;
        hi = below;
        --k;
      }
    } else {
      // Walk up: k* is the first feasible rung above the hint (under
      // ladder monotonicity nothing below the hint rung is feasible).
      bool hi_feasible = false;
      while (!hi_feasible && k < max_iterations) {
        hi *= 2.0;
        ++k;
        if (k < max_iterations) hi_feasible = feasible(hi);
      }
    }
  }
  // Bisection, bit-identical to the cold search: same (cursor, best)
  // bracket and the same remaining probe budget (max_iterations - k).
  int iterations = k;
  double best = hi;
  double cursor = lo;
  while ((best - cursor) > epsilon * best && iterations < max_iterations) {
    const double mid = 0.5 * (cursor + best);
    if (feasible(mid)) {
      best = mid;
    } else {
      cursor = mid;
    }
    ++iterations;
  }
  return best;
}

/// List assignment shared by the EDF-style policies: walks jobs in the
/// given order through a contention-aware projection, placing each on the
/// processor where it completes earliest. Only jobs whose next activity
/// would start *immediately* receive an explicit (re)allocation directive;
/// queued jobs get kTargetKeep, so their progress is never discarded just
/// because the projection shuffled the queue behind the running jobs. All
/// directives carry the rank in `order` as priority.
///
/// Provenance: immediate placements are annotated with `local_reason`
/// (edge target) or `offload_reason` (cloud target) — the calling policy's
/// semantics for "why this side of the platform" — and queued jobs with
/// kQueuedBehindPriority.
///
/// Workspace form: `clock` must be bound to the view's instance (the
/// function resets it); directives are appended to `out`. Neither argument
/// allocates once warm — this is the zero-allocation hot path.
void list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order,
    ResourceClock& clock, std::vector<Directive>& out,
    ReasonCode local_reason = ReasonCode::kProjectedBestCompletion,
    ReasonCode offload_reason = ReasonCode::kProjectedBestCompletion);

/// Allocating convenience overload (tests, one-off tools).
[[nodiscard]] std::vector<Directive> list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order);

}  // namespace ecs
