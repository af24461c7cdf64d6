// srpt.hpp - Shortest Remaining Processing Time heuristic (paper section
// V-C).
//
// At each event, SRPT repeatedly selects the (job, processor) pair that can
// complete the earliest, assigns the job there, and removes both from the
// candidate lists. Estimates are uncontended (the O(1) estimate behind the
// paper's complexity figure). No migration is possible, but a preempted job
// may restart from scratch on another processor when that restart is the
// earliest completion available to it — exactly the paper's re-execution
// rule.
#pragma once

#include <vector>

#include "sched/common.hpp"

namespace ecs {

struct SrptConfig {
  /// When false, a job that has started somewhere never restarts from
  /// scratch elsewhere — it either continues or waits. Used by the
  /// re-execution ablation bench; the paper's SRPT allows re-execution.
  bool allow_reexecution = true;
};

class SrptPolicy final : public Policy {
 public:
  SrptPolicy() = default;
  explicit SrptPolicy(const SrptConfig& config) : config_(config) {}

  [[nodiscard]] std::string name() const override {
    return config_.allow_reexecution ? "SRPT" : "SRPT-noreexec";
  }

  void reset(const Instance& instance) override;

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override;

 private:
  SrptConfig config_;
  // Workspace, reused across decide() calls (zero steady-state allocation).
  std::vector<PickOption> candidates_;
  std::vector<char> edge_free_;
  std::vector<char> cloud_free_;
};

}  // namespace ecs
