#include "sched/ssf_edf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ecs {

void SsfEdfPolicy::reset(const Instance& instance) {
  deadlines_.assign(instance.jobs.size(), kTimeInfinity);
  last_target_stretch_ = 0.0;
  clock_.bind(instance, 0.0);
  fields_.clear();
  slots_.clear();
  entries_.clear();
  kept_.clear();
  order_.clear();
}

bool SsfEdfPolicy::feasible(const SimView& view, double stretch) {
  const Platform& platform = view.platform();

  // Deadlines for this candidate stretch. The EDF order depends on the
  // candidate (denominators differ between jobs), so the entries are
  // re-keyed and re-sorted for every probe — with the same (key, id)
  // tie-break as decide().
  entries_.clear();
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    const JobFields& s = fields_[i];
    entries_.emplace_back(s.job->id, s.job->release + stretch * s.best_time,
                          static_cast<std::int32_t>(i));
  }
  sort_ordered(entries_);

  clock_.reset(view.now());
  for (const OrderedJob& e : entries_) {
    const JobFields& s = fields_[static_cast<std::size_t>(e.pos)];
    const auto [target, done] = clock_.best_target_sticky(platform, s);
    clock_.commit(platform, s, target);
    // Short-circuit: one missed deadline sinks the candidate.
    if (time_gt(done, e.key)) return false;
  }
  entries_.swap(kept_);
  kept_stretch_ = stretch;
  return true;
}

void SsfEdfPolicy::recompute_deadlines(const SimView& view) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  // Track the engine's slot table (it only ever grows within a run).
  if (deadlines_.size() < view.state_count()) {
    deadlines_.resize(view.state_count(), kTimeInfinity);
  }
  if (fields_.empty()) return;

  // Lower bound: no schedule can beat each job's individually best
  // achievable stretch from the current state (and 1.0 overall).
  double lo = 1.0;
  for (const JobFields& s : fields_) {
    const Time best_done = best_uncontended_completion(platform, s, now);
    lo = std::max(lo, (best_done - s.job->release) / s.best_time);
  }

  // Warm start: consecutive releases see mostly the same live set, so the
  // previous round's target stretch predicts this round's feasibility rung
  // almost exactly; min_feasible_stretch_warm verifies the prediction and
  // returns the same value the cold search would, with a fraction of the
  // probes. The cold path (hint <= 0) covers the first release.
  kept_stretch_ = std::numeric_limits<double>::quiet_NaN();
  const double best_feasible = min_feasible_stretch_warm(
      lo, config_.epsilon, config_.max_iterations, last_target_stretch_,
      [&](double s) { return feasible(view, s); });

  // Locking in the deadlines. Probes are deterministic within one call, so
  // a stretch the search already verified need not be probed again: its
  // entries are the ones kept.
  const auto verified = [&](double s) {
    return kept_stretch_ == s || feasible(view, s);
  };
  const double target = config_.alpha * best_feasible;
  last_target_stretch_ = target;
  bool locked = verified(target);
  if (!locked) {
    // alpha < 1 can make the scaled target infeasible; fall back to the
    // verified stretch.
    last_target_stretch_ = best_feasible;
    locked = verified(best_feasible);
  }
  if (!locked) return;  // best-effort search result failed: keep deadlines
  // Keyed by state slot, not id: under streaming (simulate_stream) slots
  // recycle across retired jobs, keeping this buffer O(live), and a slot's
  // occupant can only change at a release event — which recomputes every
  // live deadline anyway.
  for (const OrderedJob& e : kept_) {
    deadlines_[static_cast<std::size_t>(
        slots_[static_cast<std::size_t>(e.pos)])] = e.key;
  }
}

void SsfEdfPolicy::decide(const SimView& view,
                          const std::vector<Event>& events,
                          std::vector<Directive>& out) {
  if (!clock_.bound()) clock_.bind(view.instance(), view.now());
  // One gather per decision: the lower bound, every probe, the deadline
  // write and the list assignment index fields_ and slots_.
  fields_.clear();
  slots_.clear();
  for (const JobId id : view.live_jobs()) {
    slots_.push_back(view.slot(id));
    fields_.push_back(view.fields_at_slot(slots_.back()));
  }
  if (contains_release(events)) {
    recompute_deadlines(view);
  }

  // EDF placement with the stored deadlines: walk live jobs by deadline,
  // put each on the processor where the projection completes it earliest.
  // Only jobs that actually start now are (re)allocated — see
  // list_assign_directives.
  order_.clear();
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    order_.emplace_back(fields_[i].job->id,
                        deadlines_[static_cast<std::size_t>(slots_[i])],
                        static_cast<std::int32_t>(i));
  }
  sort_ordered(order_);
  // A cloud placement means the edge projection could not hold the
  // deadline-driven target stretch — the paper's delegation criterion.
  list_assign_directives(view, order_, fields_, clock_, out,
                         ReasonCode::kDeadlineFeasibleLocal,
                         ReasonCode::kDeadlineInfeasibleOnEdge);
}

}  // namespace ecs
