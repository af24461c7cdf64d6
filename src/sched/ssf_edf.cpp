#include "sched/ssf_edf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ecs {

namespace {

/// Job `s`'s deadline under target stretch S. Probes and the lock-in both
/// key through here, so a verified stretch gives the deadlines its probe
/// tested, bit for bit.
inline double deadline(const JobFields& s, double stretch) {
  return s.job->release + stretch * s.best_time;
}

}  // namespace

void SsfEdfPolicy::reset(const Instance& instance) {
  deadlines_.clear();
  last_target_stretch_ = 0.0;
  clock_.bind(instance, 0.0);
  fields_.clear();
  order_.clear();
  steps_.clear();
  walked_ = 0;
}

bool SsfEdfPolicy::feasible(const SimView& view, double stretch) {
  const Platform& platform = view.platform();
  std::vector<OrderedJob>& order = order_.entries();
  const auto fields = [&](const OrderedJob& e) -> const JobFields& {
    return fields_[static_cast<std::size_t>(e.pos)];
  };

  // Deadlines for this candidate stretch. The EDF order depends on the
  // candidate (denominators differ between jobs), so the previous probe's
  // order is re-keyed in place and re-sorted, with the same (key, id)
  // tie-break as decide(). Late bisection steps barely move it.
  for (OrderedJob& e : order) e.key = deadline(fields(e), stretch);
  // A position's projection depends on the jobs before it, not on S: the
  // positions the last probe walked before the first one the sort changed
  // project exactly as recorded.
  const std::size_t shared = std::min(sort_ordered(order), walked_);
  walked_ = shared;
  for (std::size_t i = 0; i < shared; ++i) {
    if (time_gt(steps_[i].done, order[i].key)) return false;
  }
  clock_.reset(view.now());
  for (std::size_t i = 0; i < shared; ++i) {
    clock_.commit(platform, fields(order[i]), steps_[i].target);
  }
  for (std::size_t i = shared; i < order.size(); ++i) {
    const JobFields& s = fields(order[i]);
    const auto [target, done] = clock_.place(platform, s, view.now());
    steps_[i] = Step{target, done};
    walked_ = i + 1;
    // Short-circuit: one missed deadline sinks the candidate.
    if (time_gt(done, order[i].key)) return false;
  }
  kept_stretch_ = stretch;
  return true;
}

void SsfEdfPolicy::recompute_deadlines(const SimView& view) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  if (view.live_slots().empty()) return;

  // Lower bound: no schedule can beat each job's individually best
  // achievable stretch from the current state (and 1.0 overall).
  double lo = 1.0;
  const CloudId fastest = fastest_cloud(platform);
  for (const std::int32_t slot : view.live_slots()) {
    const JobFields& s = fields_[static_cast<std::size_t>(slot)];
    const Time best_done =
        best_uncontended_completion(platform, s, now, fastest);
    lo = std::max(lo, (best_done - s.job->release) / s.best_time);
  }

  // The probe record holds projections from this call's state: it starts
  // empty for every search.
  steps_.resize(order_.entries().size());
  walked_ = 0;
  // Warm start: consecutive releases see mostly the same live set, so the
  // previous round's target stretch predicts this round's feasibility rung
  // almost exactly; min_feasible_stretch verifies the prediction and
  // returns the same value the cold search would, with a fraction of the
  // probes. The cold path (hint <= 0) covers the first release.
  kept_stretch_ = std::numeric_limits<double>::quiet_NaN();
  const double best_feasible = min_feasible_stretch(
      lo, config_.epsilon, config_.max_iterations, last_target_stretch_,
      [&](double s) { return feasible(view, s); });

  // Locking in the deadlines. Probes are deterministic within one call, so
  // a stretch the search already verified need not be probed again.
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
  // Keyed by state slot, not id: slots recycle across retired jobs,
  // keeping this buffer O(live), and a slot's occupant can only change at
  // a release event — which recomputes every live deadline anyway.
  for (const std::int32_t slot : view.live_slots()) {
    const auto s = static_cast<std::size_t>(slot);
    deadlines_[s] = deadline(fields_[s], last_target_stretch_);
  }
}

void SsfEdfPolicy::decide(const SimView& view,
                          const std::vector<Event>& events,
                          std::vector<Directive>& out) {
  if (!clock_.bound()) clock_.bind(view.instance(), view.now());
  // Track the engine's slot table (it only ever grows within a run).
  if (deadlines_.size() < view.state_count()) {
    deadlines_.resize(view.state_count(), kTimeInfinity);
    fields_.resize(view.state_count());
  }
  // One gather per decision: the lower bound, every probe, the deadline
  // write and the list assignment read fields_ by state slot.
  for (const std::int32_t slot : view.live_slots()) {
    fields_[static_cast<std::size_t>(slot)] = view.fields_at_slot(slot);
  }
  order_.carry(view);
  if (contains_release(events)) {
    recompute_deadlines(view);
  }

  // EDF placement with the stored deadlines: walk live jobs by deadline,
  // put each on the processor where the projection completes it earliest.
  // Only jobs that actually start now are (re)allocated — see
  // list_assign_directives. Between releases the deadlines do not change,
  // so the kept order is already sorted.
  std::vector<OrderedJob>& order = order_.entries();
  for (OrderedJob& e : order) {
    e.key = deadlines_[static_cast<std::size_t>(e.pos)];
  }
  sort_ordered(order);
  // A cloud placement means the edge projection could not hold the
  // deadline-driven target stretch — the paper's delegation criterion.
  list_assign_directives(view, order, fields_, clock_, out,
                         ReasonCode::kDeadlineFeasibleLocal,
                         ReasonCode::kDeadlineInfeasibleOnEdge);
}

}  // namespace ecs
