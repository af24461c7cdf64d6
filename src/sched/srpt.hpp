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

#include <cstdint>
#include <optional>
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
  /// A job's smallest completion among its options that can win, the
  /// option kept just before it (kTimeInfinity: none) and what `done` is.
  struct Verdict {
    Time done = kTimeInfinity;
    Time runner_up = kTimeInfinity;
    PickKind kind = PickKind::kKeep;
  };

  /// Calls visit(kind, done) for job i's options under the current free
  /// resources, in the order the scan considers them.
  template <typename Visit>
  void for_each_option(std::int32_t i, Visit&& visit);
  /// Job i's key (minus its smallest completion, recording its Verdict),
  /// or nullopt when it has no option.
  [[nodiscard]] std::optional<double> evaluate(std::int32_t i);
  /// The scan's pick over the indexed jobs' options, in live order (its
  /// option in `kind`); -1 if none.
  [[nodiscard]] std::int32_t scan_pick(PickKind& kind);

  SrptConfig config_;
  // Workspace, reused across decide() calls (zero steady-state allocation).
  PickSet picks_;
  std::vector<Verdict> verdicts_;
};

}  // namespace ecs
