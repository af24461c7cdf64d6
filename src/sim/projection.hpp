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

#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "sim/state.hpp"

namespace ecs {

/// Remaining amounts of the job if (re)started on `target`:
/// {uplink time, work, downlink time}. Applies the re-execution rule.
struct RemainingAmounts {
  double up = 0.0;
  double work = 0.0;
  double down = 0.0;
};
[[nodiscard]] RemainingAmounts remaining_on(const JobFields& f, int target);

/// Completion time of an activity of length `duration` started at `start`
/// when the resource is unavailable during `outages` (may be nullptr or
/// empty): processing suspends inside outage windows and resumes after
/// them — the engine's preempt-and-resume semantics.
[[nodiscard]] Time advance_through_outages(const IntervalSet* outages,
                                           Time start, double duration);

/// Earliest finish time of the job on `target`, starting at `now`,
/// assuming no contention. `target` is kAllocEdge or a cloud index.
[[nodiscard]] Time uncontended_completion(const Platform& platform,
                                          const JobFields& f, int target,
                                          Time now);

/// Outage-aware overload: accounts for the announced availability windows
/// of the target cloud processor (Instance::cloud_outages).
[[nodiscard]] Time uncontended_completion(const Instance& instance,
                                          const JobFields& f, int target,
                                          Time now);

/// Best uncontended finish time over all resources (origin edge, the
/// fastest cloud processor, or the job's current allocation).
[[nodiscard]] Time best_uncontended_completion(const Platform& platform,
                                               const JobFields& f, Time now);

/// The same, with `fastest` = fastest_cloud(platform) looked up once by a
/// caller that bounds many jobs.
[[nodiscard]] Time best_uncontended_completion(const Platform& platform,
                                               const JobFields& f, Time now,
                                               CloudId fastest);

/// Index of the fastest cloud processor, or -1 when the platform has none.
[[nodiscard]] CloudId fastest_cloud(const Platform& platform);

/// Per-resource next-free times used by the list projection.
///
/// The clock is reusable: policies bind() it once per simulation (sizing
/// the per-resource arrays, capturing the outage windows) and then reset()
/// it at every projection pass. reset() fills every lane with `now` — O(m)
/// for m edges plus clouds, the cost of one best_target_sticky() call that
/// scans the clouds. A reset clock is therefore identical to a newly
/// constructed one, with no allocation.
///
/// Every call takes the platform the clock was bound to.
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

  /// Restarts the clock at `now` with every resource free: fills all six
  /// lanes with `now`.
  void reset(Time now) noexcept;

  /// Same time and same lanes (the scratch array is not state).
  [[nodiscard]] bool operator==(const ResourceClock& other) const noexcept {
    return now_ == other.now_ && edge_cpu_ == other.edge_cpu_ &&
           edge_send_ == other.edge_send_ && edge_recv_ == other.edge_recv_ &&
           cloud_cpu_ == other.cloud_cpu_ &&
           cloud_send_ == other.cloud_send_ &&
           cloud_recv_ == other.cloud_recv_;
  }

  /// True once bind() (or a sizing constructor) has run.
  [[nodiscard]] bool bound() const noexcept { return bound_; }

  /// Completion time of the job on `target` given current clocks; does not
  /// modify the clocks.
  [[nodiscard]] Time project(const Platform& platform, const JobFields& f,
                             int target) const;

  /// Commits the job to `target`: advances the involved clocks and returns
  /// the completion time.
  Time commit(const Platform& platform, const JobFields& f, int target);

  /// Target (kAllocEdge or cloud id) minimizing the projected completion,
  /// together with that completion time. Sticky: the job's current
  /// allocation is evaluated first, then the origin edge, then the clouds
  /// in index order, and a later target wins only when it is better by more
  /// than kDecisionMargin — so a policy merely re-confirming its decisions
  /// never discards progress through the re-execution rule.
  ///
  /// Equal to the per-target loop over project() bit for bit. Without
  /// outages, an O(1) floor under every cloud's fresh-restart completion
  /// is tested first: when it cannot beat the keep/edge candidate, no
  /// cloud is scanned (DESIGN.md §6). Otherwise a first loop writes every
  /// cloud's fresh-restart completion into a scratch array (without
  /// outages: one branch-free pass over the lanes, the same operations as
  /// cloud_legs); the selection loop then scans that array once, with a
  /// branch taken only on an improvement. Non-const only for the scratch
  /// array: the clocks are not modified.
  [[nodiscard]] std::pair<int, Time> best_target_sticky(
      const Platform& platform, const JobFields& f);

  /// best_target_sticky, then starts_now (into `*immediate`, unless null)
  /// and commit on the chosen target, in one call: the commit reuses the
  /// winner's legs from the selection. Returns what best_target_sticky
  /// returns.
  std::pair<int, Time> place(const Platform& platform, const JobFields& f,
                             Time now, bool* immediate = nullptr);

  [[nodiscard]] Time edge_cpu(EdgeId j) const {
    return edge_cpu_[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] Time cloud_cpu(CloudId k) const {
    return cloud_cpu_[static_cast<std::size_t>(k)];
  }

  /// True when the job's *next* activity on `target` could begin
  /// immediately (at `now`) given the current clocks — i.e. the job would
  /// not merely be queued behind earlier commitments. Policies use this to
  /// restrict explicit (re)allocation directives to jobs that actually
  /// start, leaving queued jobs' progress untouched.
  [[nodiscard]] bool starts_now(const Platform& platform, const JobFields& f,
                                int target, Time now) const;

 private:
  struct Projection {
    Time up_end;
    Time exec_end;
    Time done;
  };
  /// A selected target with the amounts it was projected from and the
  /// legs of that projection.
  struct Choice {
    int target;
    RemainingAmounts rem;
    Projection legs;
  };
  [[nodiscard]] Projection project_detail(const Platform& platform,
                                          const JobFields& f, int target,
                                          const RemainingAmounts& rem) const;
  /// best_target_sticky's selection, with the winner's legs.
  [[nodiscard]] Choice choose(const Platform& platform, const JobFields& f);
  /// Advances the clocks a commit of `c` for a job from edge `o` moves.
  void apply(std::size_t o, const Choice& c) noexcept;
  /// starts_now with the amounts already resolved.
  [[nodiscard]] bool starts_at(std::size_t o, int target,
                               const RemainingAmounts& rem, Time now) const;
  /// Legs of a projection onto cloud `kc` from amounts already resolved
  /// against the re-execution rule; `edge_send` / `edge_recv` are the
  /// origin edge's port lanes.
  [[nodiscard]] Projection cloud_legs(std::size_t kc,
                                      const IntervalSet* outages, double up,
                                      double exec_time, double down,
                                      Time edge_send, Time edge_recv) const;
  /// A lower bound on every cloud's fresh-restart completion of `job`
  /// (no outages): fill_fresh with each cloud's own lanes dropped and its
  /// speed raised to the fastest.
  [[nodiscard]] Time fresh_floor(const Job& job, Time edge_send,
                                 Time edge_recv) const;
  /// Fills fresh_ with every cloud's fresh-restart completion of `job`
  /// (no outages).
  void fill_fresh(const std::vector<double>& speeds, const Job& job,
                  Time edge_send, Time edge_recv);
  [[nodiscard]] const IntervalSet* outages_of(CloudId k) const {
    return outages_ == nullptr || outages_->empty() ? nullptr
                                                    : &outages_->at(k);
  }

  // Unchecked indexing throughout: these lanes sit in the innermost
  // projection loops and every caller derives its index from a validated
  // target / platform bound.
  std::vector<Time> edge_cpu_;
  std::vector<Time> edge_send_;
  std::vector<Time> edge_recv_;
  std::vector<Time> cloud_cpu_;
  std::vector<Time> cloud_send_;
  std::vector<Time> cloud_recv_;
  /// best_target_sticky's per-cloud completions (sized by bind()).
  std::vector<Time> fresh_;
  const std::vector<IntervalSet>* outages_ = nullptr;
  double max_cloud_speed_ = 0.0;  ///< of the bound platform
  bool bound_ = false;
  Time now_ = 0.0;
};

}  // namespace ecs
