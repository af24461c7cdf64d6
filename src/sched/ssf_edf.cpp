#include "sched/ssf_edf.hpp"

#include <algorithm>
#include <cmath>

namespace ecs {

void SsfEdfPolicy::reset(const Instance& instance) {
  deadlines_.assign(instance.jobs.size(), kTimeInfinity);
  last_target_stretch_ = 0.0;
  clock_.bind(instance, 0.0);
  entries_.clear();
  order_.clear();
}

bool SsfEdfPolicy::feasible(const SimView& view, double stretch,
                            std::vector<double>* deadlines_out) {
  const Platform& platform = view.platform();

  // Deadlines for this candidate stretch. The EDF order depends on the
  // candidate (denominators differ between jobs), so the reused entry
  // buffer is re-keyed and re-sorted for every probe — with the same
  // (key, id) tie-break as decide().
  entries_.clear();
  for (const JobId id : view.live_jobs()) {
    const JobFields s = view.fields(id);
    entries_.push_back(
        OrderedJob{s.job->id, s.job->release + stretch * s.best_time});
  }
  sort_ordered(entries_);

  clock_.reset(view.now());
  bool ok = true;
  for (const OrderedJob& e : entries_) {
    const JobFields s = view.fields(e.id);
    const auto [target, done] = clock_.best_target_sticky(platform, s);
    clock_.commit(platform, s, target);
    if (time_gt(done, e.key)) {
      ok = false;  // short-circuit: one missed deadline sinks the candidate
      break;
    }
  }
  if (ok && deadlines_out != nullptr) {
    // Keyed by state slot, not id: under streaming (simulate_stream) slots
    // recycle across retired jobs, keeping this buffer O(live), and a slot's
    // occupant can only change at a release event — which recomputes every
    // live deadline anyway.
    for (const OrderedJob& e : entries_) {
      (*deadlines_out)[view.slot(e.id)] = e.key;
    }
  }
  return ok;
}

void SsfEdfPolicy::recompute_deadlines(const SimView& view) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  // Track the engine's slot table (it only ever grows within a run).
  if (deadlines_.size() < view.state_count()) {
    deadlines_.resize(view.state_count(), kTimeInfinity);
  }

  // Lower bound: no schedule can beat each job's individually best
  // achievable stretch from the current state (and 1.0 overall).
  double lo = 1.0;
  bool any_live = false;
  for (const JobId id : view.live_jobs()) {
    const JobFields s = view.fields(id);
    any_live = true;
    const Time best_done = best_uncontended_completion(platform, s, now);
    lo = std::max(lo, (best_done - s.job->release) / s.best_time);
  }
  if (!any_live) return;

  // Warm start: consecutive releases see mostly the same live set, so the
  // previous round's target stretch predicts this round's feasibility rung
  // almost exactly; min_feasible_stretch_warm verifies the prediction and
  // returns the same value the cold search would, with a fraction of the
  // probes. The cold path (hint <= 0) covers the first release.
  const double best_feasible = min_feasible_stretch_warm(
      lo, config_.epsilon, config_.max_iterations, last_target_stretch_,
      [&](double s) { return feasible(view, s, nullptr); });

  const double target = config_.alpha * best_feasible;
  last_target_stretch_ = target;
  // Locking in the deadlines: the final feasibility pass writes them.
  if (!feasible(view, target, &deadlines_)) {
    // alpha < 1 can make the scaled target infeasible; fall back to the
    // verified stretch.
    (void)feasible(view, best_feasible, &deadlines_);
    last_target_stretch_ = best_feasible;
  }
}

void SsfEdfPolicy::decide(const SimView& view,
                          const std::vector<Event>& events,
                          std::vector<Directive>& out) {
  if (!clock_.bound()) clock_.bind(view.instance(), view.now());
  if (contains_release(events)) {
    recompute_deadlines(view);
  }

  // EDF placement with the stored deadlines: walk live jobs by deadline,
  // put each on the processor where the projection completes it earliest.
  // Only jobs that actually start now are (re)allocated — see
  // list_assign_directives.
  order_.clear();
  for (const JobId id : view.live_jobs()) {
    order_.push_back(OrderedJob{id, deadlines_[view.slot(id)]});
  }
  sort_ordered(order_);
  // A cloud placement means the edge projection could not hold the
  // deadline-driven target stretch — the paper's delegation criterion.
  list_assign_directives(view, order_, clock_, out,
                         ReasonCode::kDeadlineFeasibleLocal,
                         ReasonCode::kDeadlineInfeasibleOnEdge);
}

}  // namespace ecs
