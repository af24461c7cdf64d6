// greedy.hpp - The Greedy heuristic (paper section V-B).
//
// At each event, as long as there are available compute resources, Greedy
// computes for every live job the minimum stretch it could achieve if it
// started on an available resource immediately (uncontended estimate), then
// schedules the job that *maximizes* this value — the job that threatens
// the maximum stretch most — on the resource where it achieves its minimum.
// The chosen job and resource are removed from consideration and the loop
// repeats. Unselected jobs keep their allocation and progress (they simply
// wait), so no progress is discarded by merely not being picked.
#pragma once

#include <vector>

#include "sched/common.hpp"

namespace ecs {

class GreedyPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "Greedy"; }

  void reset(const Instance& instance) override;

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override;

 private:
  // Workspace, reused across decide() calls (zero steady-state allocation).
  std::vector<PickOption> candidates_;
  std::vector<char> edge_free_;
  std::vector<char> cloud_free_;
};

}  // namespace ecs
