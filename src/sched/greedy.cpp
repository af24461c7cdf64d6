#include "sched/greedy.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

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
  verdicts_.clear();
}

std::optional<double> GreedyPolicy::evaluate(std::int32_t i) {
  PickSet& set = picks_;
  PickOption& option = set.option(i);
  const JobFields& s = option.f;
  // best_time is the engine's Platform::best_time(job): the same
  // denominator stretch_of() would recompute.
  const auto stretch_of_done = [&](Time done) {
    return (done - s.job->release) / s.best_time;
  };
  // The minimum stretch achievable on a still available resource, starting
  // right now.
  double min_stretch = std::numeric_limits<double>::infinity();
  bool found = false;
  PickKind kind = PickKind::kKeep;
  double keep_stretch = std::numeric_limits<double>::infinity();
  const auto consider = [&](PickKind target, Time done) {
    const double stretch = stretch_of_done(done);
    if (stretch < min_stretch - kDecisionMargin) {
      min_stretch = stretch;
      kind = target;
      found = true;
    }
  };
  // Continuing on the current allocation (progress intact) is the
  // baseline; when that resource was claimed by an earlier pick, waiting
  // for it (kTargetKeep) remains an option.
  const bool has_keep = s.alloc != kAllocUnassigned;
  if (has_keep) {
    keep_stretch = stretch_of_done(option.keep);
    min_stretch = keep_stretch;
    found = true;
  }
  if (set.edge_free(s.job->origin) && s.alloc != kAllocEdge) {
    consider(PickKind::kEdge, option.edge);
  }
  if (set.fresh() >= 0 && set.fresh() != s.alloc) {
    consider(PickKind::kFresh, set.fresh_estimate(i));
  }
  if (!found) return std::nullopt;  // nothing available for it
  option.won = kind;
  // Moving away from the current allocation discards progress; demand a
  // real improvement, not a near-tie (see kSwitchMargin).
  bool hold = false;
  if (has_keep && kind != PickKind::kKeep &&
      min_stretch > keep_stretch * (1.0 - kSwitchMargin)) {
    kind = PickKind::kKeep;
    min_stretch = keep_stretch;
    hold = true;
  }
  verdicts_[static_cast<std::size_t>(i)] = Verdict{kind, hold};
  return min_stretch;
}

std::int32_t GreedyPolicy::scan_pick() {
  // Select the job with the highest achievable min-stretch; on ties, the
  // job with the smallest best-case time — short jobs are the most
  // stretch-sensitive, so delaying them is costlier.
  PickSet& set = picks_;
  double best_value = -1.0;
  double best_tiebreak = std::numeric_limits<double>::infinity();
  std::int32_t best = -1;
  for (std::int32_t i = 0; i < set.size(); ++i) {
    if (!set.indexed(i)) continue;
    const double value = set.option(i).key;
    const double tiebreak = set.option(i).f.best_time;
    const bool wins = value > best_value + kDecisionMargin ||
                      (value > best_value - kDecisionMargin &&
                       tiebreak < best_tiebreak);
    if (wins) {
      best_value = value;
      best_tiebreak = tiebreak;
      best = i;
    }
  }
  return best;
}

void GreedyPolicy::decide(const SimView& view,
                          const std::vector<Event>& events,
                          std::vector<Directive>& out) {
  (void)events;  // Greedy recomputes its choices from scratch at each event.
  PickSet& set = picks_;
  const auto eval = [this](std::int32_t i) { return evaluate(i); };
  verdicts_.resize(view.live_jobs().size());
  set.begin(view, eval);

  out.reserve(out.size() + static_cast<std::size_t>(set.size()));
  double priority = 0.0;
  // The index's top job is the scan's pick whenever its value beats every
  // other one by more than the margin: the scan's best_value is -1 or
  // another job's value when it meets the top job, which then wins, and no
  // later job comes within the margin. Otherwise the margin rule, which
  // depends on scan order, decides (DESIGN.md §6).
  const auto settled = [&set](std::int32_t top) {
    const double value = set.option(top).key;
    const double rival = std::max(set.runner_up_key(), -1.0);
    return value > rival + kDecisionMargin && rival <= value - kDecisionMargin;
  };
  while (!set.empty()) {
    std::int32_t pick = set.best();
    if (pick < 0 || !settled(pick)) {
      pick = scan_pick();
      if (pick < 0) break;  // no job can be placed
    }
    const Verdict verdict = verdicts_[static_cast<std::size_t>(pick)];
    const JobFields& chosen = set.option(pick).f;
    const int target = set.resolve(chosen, verdict.kind);
    const ReasonCode reason =
        target == kTargetKeep ? ReasonCode::kGreedyWaitForOwnResource
        : verdict.hold        ? ReasonCode::kGreedySwitchMarginHold
                              : ReasonCode::kGreedyBestStretch;
    out.push_back(Directive{chosen.job->id, target, priority, reason});
    priority += 1.0;
    set.claim(pick, target, eval);
  }
}

}  // namespace ecs
