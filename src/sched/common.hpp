// common.hpp - Shared helpers for the scheduling policies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/projection.hpp"

namespace ecs {

/// True when the event batch contains a job release.
[[nodiscard]] bool contains_release(const std::vector<Event>& events);

/// A job with its ordering key (deadline for SSF-EDF, release for FCFS)
/// and its position in the JobFields its policy gathered for the decision.
struct OrderedJob {
  OrderedJob() = default;
  OrderedJob(JobId job, double order_key, std::int32_t position = -1) noexcept
      : id(job), pos(position), key(order_key) {}

  JobId id = -1;
  std::int32_t pos = -1;  ///< index into the gathered JobFields; -1: none
  double key = 0.0;
};

/// Sorts by (key, id) — the canonical tie-break every ordered pass uses,
/// so decide() and feasibility probes can never disagree on ordering —
/// and returns the first position whose entry changed (order.size() when
/// none did). The only OrderedJob sort: an insertion sort from the order it
/// is given, so a caller that keeps its order across calls pays about one
/// compare per entry when little moved. Past 8 moves per entry it finishes
/// with std::sort. (key, id) is a strict total order, so the result equals
/// std::sort's bit for bit from any starting order.
std::size_t sort_ordered(std::vector<OrderedJob>& order);

/// The live jobs in the order their policy last sorted them, kept across
/// decide() calls so that sort_ordered starts from a nearly sorted order.
/// Each entry's `pos` is the job's state slot.
class LiveOrder {
 public:
  /// Brings the order to the view's live set: drops every entry whose
  /// (slot, id) is no longer live and appends the live jobs it lacks (key
  /// 0, in id order). The id check matters: a shedding admission rule
  /// recycles a shed job's slot within one batch, so a slot can change
  /// occupant between two calls.
  void carry(const SimView& view);

  void clear() noexcept {
    order_.clear();
    live_id_.clear();
  }

  [[nodiscard]] std::vector<OrderedJob>& entries() noexcept { return order_; }

 private:
  std::vector<OrderedJob> order_;
  std::vector<JobId> live_id_;  ///< per state slot; -1 between calls
};

/// Fastest cloud still marked free in `cloud_free`, preferring clouds
/// available right now; clouds inside an availability outage serve only as
/// a fallback when nothing else is free. Returns -1 when no cloud is free.
/// Shared by the Greedy and SRPT pick loops.
[[nodiscard]] int pick_fresh_cloud(const SimView& view,
                                   const std::vector<char>& cloud_free);

/// What a Greedy/SRPT verdict chose for a job. The target is resolved
/// only when the job is picked (PickSet::resolve): kKeep becomes the job's
/// allocation, or kTargetKeep once that resource is claimed, and kFresh
/// becomes the fastest cloud still free.
enum class PickKind : std::uint8_t { kKeep, kEdge, kFresh };

/// One live job with its uncontended completion estimates, cached for the
/// Greedy and SRPT pick loops: each (job, target) estimate is computed once
/// per decide(), not once per scan of the candidates.
struct PickOption {
  JobFields f;
  Time keep = kTimeInfinity;   ///< continue on f.alloc (also as kTargetKeep)
  Time edge = kTimeInfinity;   ///< restart on the origin edge
  Time fresh = kTimeInfinity;  ///< restart on cloud `fresh_cloud`
  int fresh_cloud = -1;        ///< cloud `fresh` holds; -1: not computed
  // PickSet bookkeeping.
  double key = 0.0;                   ///< verdict key while indexed
  std::int32_t next_same_origin = -1; ///< next job of the same origin edge
  std::uint8_t slot = 0;              ///< PickSet::kIndexed / kIdle / kPicked
  /// Set by the policy's verdict: the option its fold of the job's options
  /// ended on (before Greedy's switch-margin hold). Losing any other
  /// option leaves the verdict's key and kind as they are.
  PickKind won = PickKind::kKeep;
};

/// The workspace of one Greedy or SRPT decide(): the live jobs' cached
/// estimates (in live-set order), the resources no pick has claimed yet,
/// and an index of the jobs that still have an option, ordered by the
/// policy's verdict key (larger is better).
///
/// A verdict is a pure function of the job and of the free-resource state,
/// and its key and kind change only when the job loses the option its fold
/// ended on. So a claim re-evaluates only (DESIGN.md §6): the jobs of a
/// claimed edge's origin whose verdict the edge won; the jobs whose verdict
/// the fresh cloud won, when the fastest free cloud is claimed and the next
/// one is slower or there is none; every job, when clouds have
/// availability outages. `eval(i)` is the policy's verdict for job i: its
/// key, or std::nullopt when the job has no option left; it sets
/// option(i).won.
class PickSet {
 public:
  static constexpr std::uint8_t kIndexed = 0;
  static constexpr std::uint8_t kIdle = 1;  ///< no option; not indexed
  static constexpr std::uint8_t kPicked = 2;

  /// Snapshots the live jobs in one pass — keep estimate (when allocated),
  /// edge estimate (when not on the edge), the per-edge job lists — frees
  /// every resource and keys every job through `eval`.
  template <typename Eval>
  void begin(const SimView& view, Eval&& eval) {
    snapshot(view);
    rekey_where(eval, [](const PickOption&) { return true; });
  }

  [[nodiscard]] std::int32_t size() const noexcept {
    return static_cast<std::int32_t>(options_.size());
  }
  [[nodiscard]] PickOption& option(std::int32_t i) noexcept {
    return options_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] bool indexed(std::int32_t i) const noexcept {
    return options_[static_cast<std::size_t>(i)].slot == kIndexed;
  }
  [[nodiscard]] bool edge_free(EdgeId origin) const noexcept {
    return edge_free_[static_cast<std::size_t>(origin)] != 0;
  }
  /// Fastest cloud still free (pick_fresh_cloud); -1 when none is.
  [[nodiscard]] int fresh() const noexcept { return fresh_; }
  /// Job i's uncontended completion for a fresh restart on fresh(),
  /// recomputed only when the cached one is for another cloud.
  [[nodiscard]] Time fresh_estimate(std::int32_t i) {
    PickOption& o = option(i);
    if (o.fresh_cloud != fresh_) {
      o.fresh = uncontended_completion(view_->instance(), o.f, fresh_,
                                       view_->now());
      o.fresh_cloud = fresh_;
    }
    return o.fresh;
  }
  /// The target a verdict of `kind` names for `f` under the current state.
  [[nodiscard]] int resolve(const JobFields& f, PickKind kind) const noexcept;

  /// True when no job is indexed.
  [[nodiscard]] bool empty() const noexcept { return indexed_ == 0; }
  /// The indexed job with the best key; -1 when only jobs keyed -∞ are.
  [[nodiscard]] std::int32_t best() const noexcept { return tree_[1].job; }
  /// The best key among the indexed jobs other than best() (which must be
  /// a job), -∞ when there is none: the best of the subtrees hanging off
  /// best()'s path to the root.
  [[nodiscard]] double runner_up_key() const noexcept {
    double rival = kNoKey;
    for (std::size_t n = leaf(best()); n > 1; n >>= 1) {
      rival = std::max(rival, tree_[n ^ 1].key);
    }
    return rival;
  }

  /// Records the pick of job i onto `target`, drops i from the index and
  /// re-keys, through `eval`, every job whose verdict the claim can change.
  template <typename Eval>
  void claim(std::int32_t i, int target, Eval&& eval) {
    option(i).slot = kPicked;
    --indexed_;
    tree_[leaf(i)] = kEmpty;
    replay(i);
    if (target == kAllocEdge) {
      const EdgeId origin = option(i).f.job->origin;
      edge_free_[static_cast<std::size_t>(origin)] = 0;
      for (std::int32_t j = edge_head_[static_cast<std::size_t>(origin)];
           j >= 0; j = option(j).next_same_origin) {
        if (option(j).slot == kIndexed && option(j).won == PickKind::kEdge) {
          evaluate_leaf(j, eval);
          replay(j);
        }
      }
      return;
    }
    if (target == kTargetKeep) return;
    cloud_free_[static_cast<std::size_t>(target)] = 0;
    // Claiming any other cloud leaves pick_fresh_cloud's answer as it was.
    if (target != fresh_) return;
    const int old_fresh = fresh_;
    if (!view_->instance().cloud_outages.empty()) {
      fresh_ = pick_fresh_cloud(*view_, cloud_free_);
      rekey_where(eval, [](const PickOption& o) { return o.slot != kPicked; });
      return;
    }
    fresh_ = next_by_speed();
    // Without outages a fresh restart costs now + up + work / speed + down
    // on any cloud but the job's own (uncontended_completion): the same
    // bits on a cloud of the same speed, no less on a slower one, and never
    // less than the job's keep on an own cloud at least as fast (remaining
    // amounts never exceed the job's). So only the verdicts the fresh cloud
    // won can change, and only when the new one is slower or none.
    if (fresh_ >= 0 && view_->platform().cloud_speed(fresh_) ==
                           view_->platform().cloud_speed(old_fresh)) {
      return;
    }
    rekey_where(eval, [](const PickOption& o) {
      return o.slot == kIndexed && o.won == PickKind::kFresh;
    });
  }

 private:
  struct Entry {
    double key;
    std::int32_t job;  ///< -1: no job
  };
  static constexpr double kNoKey = -std::numeric_limits<double>::infinity();
  static constexpr Entry kEmpty{kNoKey, -1};

  /// The entry with the larger key, the left one on equal keys (the pick
  /// loops never take an index pick that needs the tie broken).
  [[nodiscard]] static Entry better(const Entry& a, const Entry& b) noexcept {
    return b.key > a.key ? b : a;
  }
  [[nodiscard]] std::size_t leaf(std::int32_t i) const noexcept {
    return leaves_ + static_cast<std::size_t>(i);
  }

  void snapshot(const SimView& view);
  /// Without outages, pick_fresh_cloud is the first cloud of by_speed_
  /// still free. Claims only ever clear cloud_free_, so the cursor moves
  /// forward only.
  [[nodiscard]] int next_by_speed() noexcept {
    while (cursor_ < by_speed_.size() &&
           cloud_free_[static_cast<std::size_t>(by_speed_[cursor_])] == 0) {
      ++cursor_;
    }
    return cursor_ < by_speed_.size() ? by_speed_[cursor_] : -1;
  }
  /// Replays the matches on job i's path to the root.
  void replay(std::int32_t i) noexcept;

  /// Re-evaluates job i into its leaf, without replaying the matches above.
  template <typename Eval>
  void evaluate_leaf(std::int32_t i, Eval& eval) {
    PickOption& o = option(i);
    const bool was_indexed = o.slot == kIndexed;
    const std::optional<double> key = eval(i);
    if (key) {
      o.key = *key;
      o.slot = kIndexed;
      tree_[leaf(i)] = Entry{*key, i};
    } else {
      o.slot = kIdle;
      tree_[leaf(i)] = kEmpty;
    }
    indexed_ += static_cast<std::int32_t>(o.slot == kIndexed) -
                static_cast<std::int32_t>(was_indexed);
  }

  /// Re-evaluates the jobs `which` selects, then replays every match: one
  /// O(leaves) pass instead of a path replay per job.
  template <typename Eval, typename Which>
  void rekey_where(Eval& eval, Which&& which) {
    for (std::int32_t i = 0; i < size(); ++i) {
      if (which(option(i))) evaluate_leaf(i, eval);
    }
    for (std::size_t n = leaves_ - 1; n >= 1; --n) {
      tree_[n] = better(tree_[2 * n], tree_[2 * n + 1]);
    }
  }

  const SimView* view_ = nullptr;
  std::vector<PickOption> options_;
  /// Winner tree over the jobs: leaf(i) holds job i's entry (kEmpty unless
  /// indexed), each inner node n the better of 2n and 2n + 1, so tree_[1]
  /// is the best entry.
  std::vector<Entry> tree_;
  std::size_t leaves_ = 1;  ///< a power of two >= the number of jobs
  std::int32_t indexed_ = 0;  ///< jobs in the index
  std::vector<char> edge_free_;
  std::vector<char> cloud_free_;
  std::vector<std::int32_t> edge_head_;  ///< first job of each origin edge
  int fresh_ = -1;
  /// The clouds by (speed desc, index asc), kept across decide() calls and
  /// rebuilt when the platform's cloud speeds differ from `speeds_`.
  std::vector<int> by_speed_;
  std::vector<double> speeds_;
  std::size_t cursor_ = 0;  ///< by_speed_ clouds before it are claimed
};

/// Exponential doubling followed by bisection for the smallest stretch
/// accepted by `feasible`, starting from the lower bound `lo`, to relative
/// precision `epsilon`, spending at most `max_iterations` probes overall.
/// Returns the smallest stretch that was actually verified feasible (if the
/// doubling phase exhausts the probe budget, the last — largest — probe is
/// returned even if unverified; callers treat the result as best-effort).
/// Shared by SSF-EDF and Edge-Only. A template (not std::function) so the
/// zero-allocation decide() paths never pay a closure heap allocation.
///
/// The doubling phase looks for the first feasible rung of the ladder
/// hi = base * 2^k (base = max(lo, 1.0)). With `warm_hint <= 0` it scans
/// the ladder upward from k = 0, one probe per rung (the cold search).
/// Otherwise it jumps to the rung covering `warm_hint` (the previous
/// search's result — target stretches drift slowly between consecutive
/// releases) and walks down while the rung below stays feasible, or up
/// until a rung is feasible. Because feasibility is monotone along the
/// ladder (the property the bisection itself relies on), both scans find
/// the same rung k*; rung values are exact (multiplying by 2.0 is exact in
/// binary floating point), and the bisection is then entered with
/// iterations = k* — the number of failed probes the cold scan consumes —
/// so the midpoint sequence, the budget cutoff and the result do not
/// depend on the hint.
template <typename FeasibleFn>
[[nodiscard]] double min_feasible_stretch(double lo, double epsilon,
                                          int max_iterations,
                                          double warm_hint,
                                          FeasibleFn&& feasible) {
  const double base = std::max(lo, 1.0);
  int k = 0;         // first-feasible rung index (== cold's failed probes)
  double hi = base;  // rung(k)
  if (warm_hint <= 0.0) {
    // Cold ladder scan upward from rung 0.
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
  // Bisection: the same (cursor, best) bracket and the same remaining
  // probe budget (max_iterations - k) whether or not the scan was warm.
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
/// Workspace form: each entry's `pos` indexes `fields`, the live jobs'
/// fields the caller gathered once for this decision; `clock` must be
/// bound to the view's instance (the function resets it); directives are
/// appended to `out`. Nothing allocates once warm — this is the
/// zero-allocation hot path.
void list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order,
    const std::vector<JobFields>& fields, ResourceClock& clock,
    std::vector<Directive>& out,
    ReasonCode local_reason = ReasonCode::kProjectedBestCompletion,
    ReasonCode offload_reason = ReasonCode::kProjectedBestCompletion);

/// Allocating convenience overload (tests, one-off tools): gathers the
/// fields of `order`'s jobs itself; `pos` is ignored.
[[nodiscard]] std::vector<Directive> list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order);

}  // namespace ecs
