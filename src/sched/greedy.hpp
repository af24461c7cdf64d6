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

#include <cstdint>
#include <optional>
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
  /// Which option won a job's min-stretch, and whether the switch margin
  /// held it on its own allocation; the value is the job's PickSet key.
  struct Verdict {
    PickKind kind = PickKind::kKeep;
    bool hold = false;
  };

  /// Job i's min-stretch under the current free resources (recording its
  /// Verdict), or nullopt when no resource is available to it.
  [[nodiscard]] std::optional<double> evaluate(std::int32_t i);
  /// The scan's pick among the indexed jobs, in live order; -1 if none.
  [[nodiscard]] std::int32_t scan_pick();

  // Workspace, reused across decide() calls (zero steady-state allocation).
  PickSet picks_;
  std::vector<Verdict> verdicts_;
};

}  // namespace ecs
