#include "sched/srpt.hpp"

#include <limits>

namespace ecs {

void SrptPolicy::reset(const Instance& instance) {
  (void)instance;
  candidates_.clear();
  edge_free_.clear();
  cloud_free_.clear();
}

void SrptPolicy::decide(const SimView& view, const std::vector<Event>& events,
                        std::vector<Directive>& out) {
  (void)events;  // SRPT recomputes its choices from scratch at each event.
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

  while (!candidates.empty()) {
    Time best_done = kTimeInfinity;
    std::size_t best_pos = candidates.size();
    int best_resource = kAllocUnassigned;

    for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
      PickOption& option = candidates[pos];
      const JobFields& s = option.f;
      const auto consider = [&](int target, Time done) {
        if (done < best_done - kDecisionMargin) {
          best_done = done;
          best_pos = pos;
          best_resource = target;
        }
      };
      // Current allocation first: on equal completion times, continuing
      // (keeping progress) wins over any restart. If the job's own
      // resource was claimed earlier this round, waiting for it
      // (kTargetKeep) competes against restarting from scratch elsewhere.
      if (s.alloc != kAllocUnassigned) {
        const bool own_free =
            s.alloc == kAllocEdge ? edge_free[s.job->origin] != 0
                                  : cloud_free[s.alloc] != 0;
        consider(own_free ? s.alloc : kTargetKeep, option.keep);
      }
      const bool may_restart =
          config_.allow_reexecution || s.alloc == kAllocUnassigned;
      if (may_restart) {
        if (edge_free[s.job->origin] && s.alloc != kAllocEdge) {
          consider(kAllocEdge, option.edge);
        }
        if (fresh >= 0 && fresh != s.alloc) {
          consider(fresh, fresh_estimate(view, option, fresh));
        }
      }
    }

    if (best_pos == candidates.size()) break;  // nothing placeable
    const Job& chosen = *candidates[best_pos].f.job;
    directives.push_back(Directive{
        chosen.id, best_resource, priority,
        best_resource == kTargetKeep ? ReasonCode::kSrptWaitForOwnResource
                                     : ReasonCode::kSrptShortestRemaining});
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
