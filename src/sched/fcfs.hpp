// fcfs.hpp - First-Come-First-Served baseline (not in the paper).
//
// Jobs are prioritized by release date and placed, in that order, on the
// processor where the contention-aware projection completes them earliest.
// FCFS ignores job lengths entirely, so it is a useful control in tests and
// ablations: any stretch-aware heuristic should beat it on max-stretch for
// mixed job sizes.
#pragma once

#include "sched/common.hpp"

namespace ecs {

class FcfsPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "FCFS"; }

  void reset(const Instance& instance) override;

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override;

 private:
  // Workspace, reused across decide() calls (zero steady-state allocation).
  std::vector<JobFields> fields_;  ///< live jobs' fields, gathered once
  std::vector<OrderedJob> order_;
  ResourceClock clock_;
};

}  // namespace ecs
