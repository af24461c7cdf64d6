// projection.hpp - Completion-time projection for online heuristics.
//
// The paper's heuristics need to estimate when a job would finish on a
// candidate resource. Two levels of fidelity are provided:
//
//  * `uncontended_completion` ignores other jobs entirely: it is the
//    earliest conceivable finish time, matching the O(1) estimate behind
//    the complexity figures of Greedy / SRPT (section V-B, V-C).
//
//  * `ResourceClock` + `project` performs a non-preemptive list projection:
//    per-resource next-free counters (edge/cloud CPUs and the four one-port
//    directions) are advanced as candidate jobs are committed in priority
//    order. SSF-EDF's feasibility test (section V-D) walks jobs in deadline
//    order through this projection.
//
// Both honour the re-execution rule: projecting a job onto its *current*
// allocation uses its remaining amounts, any other target uses the full
// amounts from scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "core/platform.hpp"
#include "sim/state.hpp"

namespace ecs {

/// Completion time of an activity of length `duration` started at `start`
/// when the resource is unavailable during `outages` (may be nullptr or
/// empty): processing suspends inside outage windows and resumes after
/// them — the engine's preempt-and-resume semantics.
[[nodiscard]] Time advance_through_outages(const IntervalSet* outages,
                                           Time start, double duration);

/// Earliest finish time of the job on `target`, starting at `now`,
/// assuming no contention. `target` is kAllocEdge or a cloud index.
/// The JobFields overload is primary (the field-view hot path); the
/// JobState form wraps it via fields_of(), so both are bit-identical.
[[nodiscard]] Time uncontended_completion(const Platform& platform,
                                          const JobFields& f, int target,
                                          Time now);
[[nodiscard]] Time uncontended_completion(const Platform& platform,
                                          const JobState& state, int target,
                                          Time now);

/// Outage-aware overload: accounts for the announced availability windows
/// of the target cloud processor (Instance::cloud_outages).
[[nodiscard]] Time uncontended_completion(const Instance& instance,
                                          const JobFields& f, int target,
                                          Time now);
[[nodiscard]] Time uncontended_completion(const Instance& instance,
                                          const JobState& state, int target,
                                          Time now);

/// Best uncontended finish time over all resources (origin edge, the
/// fastest cloud processor, or the job's current allocation).
[[nodiscard]] Time best_uncontended_completion(const Platform& platform,
                                               const JobFields& f, Time now);
[[nodiscard]] Time best_uncontended_completion(const Platform& platform,
                                               const JobState& state,
                                               Time now);

/// Index of the fastest cloud processor, or -1 when the platform has none.
[[nodiscard]] CloudId fastest_cloud(const Platform& platform);

/// Per-resource next-free times used by the list projection.
///
/// The clock is reusable: policies bind() it once per simulation (sizing
/// the per-resource arrays, capturing the outage windows) and then reset()
/// it at every projection pass. reset() is O(1) — each per-resource entry
/// is epoch-tagged, an entry whose tag predates the current epoch reads as
/// `now` (i.e. free), and commit() re-tags exactly the entries it writes.
/// A freshly reset() clock is therefore indistinguishable from a newly
/// constructed one, with no per-resource refill and no allocation.
class ResourceClock {
 public:
  /// Unbound clock; bind() must run before any projection.
  ResourceClock() = default;

  ResourceClock(const Platform& platform, Time now);

  /// Outage-aware construction: projections suspend inside the announced
  /// availability windows of each cloud processor, exactly mirroring the
  /// engine's enforcement.
  ResourceClock(const Instance& instance, Time now);

  /// Sizes the per-resource arrays for `platform` and resets to `now`.
  /// Allocates (once); reset() afterwards never does.
  void bind(const Platform& platform, Time now);

  /// Outage-aware bind: also captures `instance.cloud_outages` (the
  /// instance must outlive the clock's use).
  void bind(const Instance& instance, Time now);

  /// Restarts the clock at `now` with every resource free. O(1): bumps the
  /// epoch so all stale entries read as `now`.
  void reset(Time now) noexcept;

  /// True once bind() (or a sizing constructor) has run.
  [[nodiscard]] bool bound() const noexcept { return epoch_ != 0; }

  /// Completion time of the job on `target` given current clocks; does not
  /// modify the clocks. JobFields overloads are primary; the JobState
  /// forms wrap them via fields_of() (bit-identical paths).
  [[nodiscard]] Time project(const Platform& platform, const JobFields& f,
                             int target) const;
  [[nodiscard]] Time project(const Platform& platform, const JobState& state,
                             int target) const;

  /// Commits the job to `target`: advances the involved clocks and returns
  /// the completion time.
  Time commit(const Platform& platform, const JobFields& f, int target);
  Time commit(const Platform& platform, const JobState& state, int target);

  /// Target (kAllocEdge or cloud id) minimizing the projected completion,
  /// together with that completion time. Sticky: the job's current
  /// allocation is evaluated first, then the origin edge, then the clouds
  /// in index order, and a later target wins only when it is better by more
  /// than kDecisionMargin — so a policy merely re-confirming its decisions
  /// never discards progress through the re-execution rule.
  ///
  /// One fused scan, equal to the per-target loop over project() bit for
  /// bit: the fresh amounts, the origin's port lanes and the work / speed
  /// division are hoisted out of the cloud loop (the division is redone
  /// only when the speed changes). Without outages, two exact shortcuts
  /// skip clouds that cannot win the strict-margin comparison: a cloud
  /// whose CPU lane + execution + downlink already fails to beat the
  /// running best is not projected; and when every cloud has the same
  /// speed, the clouds not yet committed in this pass all project to the
  /// same value, so only the lowest-indexed one is evaluated (an equal
  /// later value can never win).
  [[nodiscard]] std::pair<int, Time> best_target_sticky(
      const Platform& platform, const JobFields& f) const;

  [[nodiscard]] Time edge_cpu(EdgeId j) const {
    return rd(edge_cpu_, static_cast<std::size_t>(j));
  }
  [[nodiscard]] Time cloud_cpu(CloudId k) const {
    return rd(cloud_cpu_, static_cast<std::size_t>(k));
  }

  /// True when the job's *next* activity on `target` could begin
  /// immediately (at `now`) given the current clocks — i.e. the job would
  /// not merely be queued behind earlier commitments. Policies use this to
  /// restrict explicit (re)allocation directives to jobs that actually
  /// start, leaving queued jobs' progress untouched.
  [[nodiscard]] bool starts_now(const Platform& platform, const JobFields& f,
                                int target, Time now) const;
  [[nodiscard]] bool starts_now(const Platform& platform,
                                const JobState& state, int target,
                                Time now) const;

 private:
  struct Projection {
    Time up_end;
    Time exec_end;
    Time done;
  };
  /// One per-resource lane: next-free times plus the epoch each entry was
  /// written in. A stale epoch means "never touched since reset" = free.
  struct Lane {
    std::vector<Time> time;
    std::vector<std::uint32_t> epoch;
  };
  // Unchecked indexing: these sit in the innermost projection loops and
  // every caller derives `i` from a validated target / platform bound.
  [[nodiscard]] Time rd(const Lane& lane, std::size_t i) const {
    return lane.epoch[i] == epoch_ ? lane.time[i] : now_;
  }
  void wr(Lane& lane, std::size_t i, Time t) {
    lane.time[i] = t;
    lane.epoch[i] = epoch_;
  }
  [[nodiscard]] Projection project_detail(const Platform& platform,
                                          const JobFields& f,
                                          int target) const;
  /// Legs of a projection onto cloud `kc` from amounts already resolved
  /// against the re-execution rule; `edge_send` / `edge_recv` are the
  /// origin edge's port lanes.
  [[nodiscard]] Projection cloud_legs(std::size_t kc,
                                      const IntervalSet* outages, double up,
                                      double exec_time, double down,
                                      Time edge_send, Time edge_recv) const;
  [[nodiscard]] const IntervalSet* outages_of(CloudId k) const {
    return outages_ == nullptr || outages_->empty() ? nullptr
                                                    : &outages_->at(k);
  }

  Lane edge_cpu_;
  Lane edge_send_;
  Lane edge_recv_;
  Lane cloud_cpu_;
  Lane cloud_send_;
  Lane cloud_recv_;
  const std::vector<IntervalSet>* outages_ = nullptr;
  /// All clouds share one speed (set by bind(); see best_target_sticky).
  bool uniform_clouds_ = false;
  Time now_ = 0.0;
  std::uint32_t epoch_ = 0;  ///< 0 = unbound; bind() starts at 1
};

/// Remaining amounts of the job if (re)started on `target`:
/// {uplink time, work, downlink time}. Applies the re-execution rule.
struct RemainingAmounts {
  double up = 0.0;
  double work = 0.0;
  double down = 0.0;
};
[[nodiscard]] RemainingAmounts remaining_on(const JobFields& f, int target);
[[nodiscard]] RemainingAmounts remaining_on(const JobState& state, int target);

}  // namespace ecs
