#include "sched/srpt.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

namespace ecs {

void SrptPolicy::reset(const Instance& instance) {
  (void)instance;
  verdicts_.clear();
}

template <typename Visit>
void SrptPolicy::for_each_option(std::int32_t i, Visit&& visit) {
  PickSet& set = picks_;
  PickOption& option = set.option(i);
  const JobFields& s = option.f;
  // Current allocation first: on equal completion times, continuing
  // (keeping progress) wins over any restart. If the job's own resource
  // was claimed earlier this round, waiting for it (kTargetKeep) competes
  // against restarting from scratch elsewhere.
  if (s.alloc != kAllocUnassigned) visit(PickKind::kKeep, option.keep);
  const bool may_restart =
      config_.allow_reexecution || s.alloc == kAllocUnassigned;
  if (may_restart) {
    if (set.edge_free(s.job->origin) && s.alloc != kAllocEdge) {
      visit(PickKind::kEdge, option.edge);
    }
    if (set.fresh() >= 0 && set.fresh() != s.alloc) {
      visit(PickKind::kFresh, set.fresh_estimate(i));
    }
  }
}

std::optional<double> SrptPolicy::evaluate(std::int32_t i) {
  // An option no smaller than an earlier option of the same job can never
  // win the scan (the earlier one lowered best_done first), so a verdict
  // keeps only the strictly decreasing prefix minima: the smallest, and
  // the one before it. A job is re-evaluated only when it loses its
  // smallest; losing the one before it leaves runner_up below the true
  // rival, which only makes the index's test more cautious.
  Verdict v;
  bool found = false;
  for_each_option(i, [&](PickKind kind, Time done) {
    if (!found || done < v.done) {
      v.runner_up = found ? v.done : kTimeInfinity;
      v.done = done;
      v.kind = kind;
      found = true;
    }
  });
  if (!found) return std::nullopt;
  picks_.option(i).won = v.kind;
  verdicts_[static_cast<std::size_t>(i)] = v;
  return -v.done;  // the index prefers larger keys
}

std::int32_t SrptPolicy::scan_pick(PickKind& kind) {
  PickSet& set = picks_;
  Time best_done = kTimeInfinity;
  std::int32_t best = -1;
  for (std::int32_t i = 0; i < set.size(); ++i) {
    if (!set.indexed(i)) continue;
    for_each_option(i, [&](PickKind option_kind, Time done) {
      if (done < best_done - kDecisionMargin) {
        best_done = done;
        best = i;
        kind = option_kind;
      }
    });
  }
  return best;
}

void SrptPolicy::decide(const SimView& view, const std::vector<Event>& events,
                        std::vector<Directive>& out) {
  (void)events;  // SRPT recomputes its choices from scratch at each event.
  PickSet& set = picks_;
  const auto eval = [this](std::int32_t i) { return evaluate(i); };
  verdicts_.resize(view.live_jobs().size());
  set.begin(view, eval);

  out.reserve(out.size() + static_cast<std::size_t>(set.size()));
  double priority = 0.0;
  // The scan's best_done ends in [M, M + margin] for the smallest option M,
  // so the index's top job is the scan's pick whenever no other option that
  // can win — another job's smallest, or this job's earlier prefix minimum —
  // lies within the margin of M. Otherwise the margin rule, which depends
  // on scan order, decides (DESIGN.md §6).
  const auto settled = [this, &set](std::int32_t top) {
    const Verdict& v = verdicts_[static_cast<std::size_t>(top)];
    const Time rival = std::min(v.runner_up, -set.runner_up_key());
    return rival - kDecisionMargin > v.done;
  };
  while (!set.empty()) {
    std::int32_t pick = set.best();
    PickKind kind{};
    if (pick >= 0 && settled(pick)) {
      kind = verdicts_[static_cast<std::size_t>(pick)].kind;
    } else {
      pick = scan_pick(kind);
      if (pick < 0) break;  // nothing placeable
    }
    const JobFields& chosen = set.option(pick).f;
    const int target = set.resolve(chosen, kind);
    out.push_back(Directive{
        chosen.job->id, target, priority,
        target == kTargetKeep ? ReasonCode::kSrptWaitForOwnResource
                              : ReasonCode::kSrptShortestRemaining});
    priority += 1.0;
    set.claim(pick, target, eval);
  }
}

}  // namespace ecs
