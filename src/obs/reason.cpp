#include "obs/reason.hpp"

namespace ecs {

std::string to_string(ReasonCode reason) {
  switch (reason) {
    case ReasonCode::kUnspecified:
      return "unspecified";
    case ReasonCode::kProjectedBestCompletion:
      return "projected-best-completion";
    case ReasonCode::kQueuedBehindPriority:
      return "queued-behind-priority";
    case ReasonCode::kGreedyBestStretch:
      return "greedy-best-stretch";
    case ReasonCode::kGreedySwitchMarginHold:
      return "greedy-switch-margin-hold";
    case ReasonCode::kGreedyWaitForOwnResource:
      return "greedy-wait-for-own-resource";
    case ReasonCode::kSrptShortestRemaining:
      return "srpt-shortest-remaining";
    case ReasonCode::kSrptWaitForOwnResource:
      return "srpt-wait-for-own-resource";
    case ReasonCode::kDeadlineFeasibleLocal:
      return "deadline-feasible-local";
    case ReasonCode::kDeadlineInfeasibleOnEdge:
      return "deadline-infeasible-on-edge";
    case ReasonCode::kFcfsArrivalOrder:
      return "fcfs-arrival-order";
    case ReasonCode::kEdgeOnlyEdf:
      return "edge-only-edf";
    case ReasonCode::kFixedAssignment:
      return "fixed-assignment";
    case ReasonCode::kFailoverBlacklist:
      return "failover-blacklist";
    case ReasonCode::kFailoverBackoff:
      return "failover-backoff";
    case ReasonCode::kFailoverCrashEvacuation:
      return "failover-crash-evacuation";
    case ReasonCode::kFailoverDegradeToEdge:
      return "failover-degrade-to-edge";
    case ReasonCode::kAdmissionQueueFull:
      return "admission-queue-full";
    case ReasonCode::kAdmissionStretchHopeless:
      return "admission-stretch-hopeless";
    case ReasonCode::kAdmissionDeadlineInfeasible:
      return "admission-deadline-infeasible";
  }
  return "unknown";
}

ReasonCode reason_from_int(int value) noexcept {
  if (value < 0 ||
      value > static_cast<int>(ReasonCode::kAdmissionDeadlineInfeasible)) {
    return ReasonCode::kUnspecified;
  }
  return static_cast<ReasonCode>(value);
}

}  // namespace ecs
