#include "sched/greedy.hpp"

#include <limits>

namespace ecs {
namespace {

/// Relative improvement a relocation must offer over continuing on the
/// current allocation before Greedy discards progress (the re-execution
/// rule makes moves expensive: the uncontended estimates cannot see the
/// contention a marginal move creates, so near-tie moves systematically
/// thrash). Unassigned jobs have nothing to lose and are exempt.
constexpr double kSwitchMargin = 0.10;

}  // namespace

void GreedyPolicy::reset(const Instance& instance) {
  (void)instance;
  candidates_.clear();
  edge_free_.clear();
  cloud_free_.clear();
}

void GreedyPolicy::decide(const SimView& view,
                          const std::vector<Event>& events,
                          std::vector<Directive>& out) {
  (void)events;  // Greedy recomputes its choices from scratch at each event.
  const Platform& platform = view.platform();

  // Every estimate a scan compares is computed once per decide(): keep and
  // edge here, fresh-cloud lazily (it changes only when a cloud is claimed).
  std::vector<PickOption>& candidates = candidates_;
  snapshot_pick_options(view, candidates);
  std::vector<char>& edge_free = edge_free_;
  std::vector<char>& cloud_free = cloud_free_;
  edge_free.assign(static_cast<std::size_t>(platform.edge_count()), 1);
  cloud_free.assign(static_cast<std::size_t>(platform.cloud_count()), 1);

  std::vector<Directive>& directives = out;
  directives.reserve(directives.size() + candidates.size());
  double priority = 0.0;
  int fresh = pick_fresh_cloud(view, cloud_free);

  // A linear scan in candidate order, not a heap: the tie rule below
  // depends on scan order and is not transitive.
  while (!candidates.empty()) {
    // For each unselected job: the minimum stretch achievable on a still
    // available resource, starting right now.
    double best_value = -1.0;  // max over jobs of min-stretch
    double best_tiebreak = std::numeric_limits<double>::infinity();
    std::size_t best_pos = candidates.size();
    int best_resource = kAllocUnassigned;
    ReasonCode best_reason = ReasonCode::kGreedyBestStretch;

    for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
      PickOption& option = candidates[pos];
      const JobFields& s = option.f;
      // best_time is the engine's Platform::best_time(job): the same
      // denominator stretch_of() would recompute.
      const auto stretch_of_done = [&](Time done) {
        return (done - s.job->release) / s.best_time;
      };
      double min_stretch = std::numeric_limits<double>::infinity();
      int argmin = kAllocUnassigned;
      double keep_stretch = std::numeric_limits<double>::infinity();
      const auto consider = [&](int target, Time done) {
        const double stretch = stretch_of_done(done);
        if (stretch < min_stretch - kDecisionMargin) {
          min_stretch = stretch;
          argmin = target;
        }
      };
      // Continuing on the current allocation (progress intact) is the
      // baseline; when that resource was claimed by an earlier pick,
      // waiting for it (kTargetKeep) remains an option.
      int keep_target = kAllocUnassigned;
      if (s.alloc != kAllocUnassigned) {
        const bool own_free =
            s.alloc == kAllocEdge ? edge_free[s.job->origin] != 0
                                  : cloud_free[s.alloc] != 0;
        keep_target = own_free ? s.alloc : kTargetKeep;
        keep_stretch = stretch_of_done(option.keep);
        min_stretch = keep_stretch;
        argmin = keep_target;
      }
      if (edge_free[s.job->origin] && s.alloc != kAllocEdge) {
        consider(kAllocEdge, option.edge);
      }
      if (fresh >= 0 && fresh != s.alloc) {
        consider(fresh, fresh_estimate(view, option, fresh));
      }
      if (argmin == kAllocUnassigned) continue;  // nothing available for it
      // Moving away from the current allocation discards progress; demand
      // a real improvement, not a near-tie (see kSwitchMargin).
      ReasonCode reason = ReasonCode::kGreedyBestStretch;
      if (keep_target != kAllocUnassigned && argmin != keep_target &&
          min_stretch > keep_stretch * (1.0 - kSwitchMargin)) {
        argmin = keep_target;
        min_stretch = keep_stretch;
        reason = ReasonCode::kGreedySwitchMarginHold;
      }
      if (argmin == kTargetKeep) {
        reason = ReasonCode::kGreedyWaitForOwnResource;
      }
      // Select the job with the highest achievable min-stretch; on ties,
      // the job with the smallest best-case time — short jobs are the most
      // stretch-sensitive, so delaying them is costlier.
      const bool wins =
          min_stretch > best_value + kDecisionMargin ||
          (min_stretch > best_value - kDecisionMargin &&
           s.best_time < best_tiebreak);
      if (wins) {
        best_value = min_stretch;
        best_tiebreak = s.best_time;
        best_pos = pos;
        best_resource = argmin;
        best_reason = reason;
      }
    }

    if (best_pos == candidates.size()) break;  // no job can be placed
    const Job& chosen = *candidates[best_pos].f.job;
    directives.push_back(
        Directive{chosen.id, best_resource, priority, best_reason});
    priority += 1.0;
    if (best_resource == kAllocEdge) {
      edge_free[chosen.origin] = 0;
    } else if (best_resource != kTargetKeep) {
      cloud_free[best_resource] = 0;
      fresh = pick_fresh_cloud(view, cloud_free);
    }
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(best_pos));
  }
}

}  // namespace ecs
