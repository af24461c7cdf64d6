// reason.hpp - Machine-readable decision reason codes.
//
// Every Directive a policy emits carries a ReasonCode explaining *why* the
// policy chose that target (see sim/policy.hpp). The engine copies the code
// into the decision-provenance trace records (TracePoint::kDirective), so a
// job's final stretch can be traced back to the sequence of decisions that
// produced it (obs/provenance.hpp, tools/trace_inspect --explain).
//
// The enum lives in the obs library (not sim/) because the observability
// layer — provenance chains, the invariant watchdog, the JSONL reader —
// must interpret the codes without depending on the simulator; sim links
// against obs, not the other way around. Codes are stable small integers:
// they are serialized numerically in JSONL traces, so renumbering breaks
// old traces. Append only.
#pragma once

#include <cstdint>
#include <string>

namespace ecs {

enum class ReasonCode : std::uint8_t {
  kUnspecified = 0,        ///< policy predates reason codes / no annotation

  // Shared list-assignment reasons (sched/common.cpp).
  kProjectedBestCompletion = 1,  ///< target minimizes projected completion
  kQueuedBehindPriority = 2,     ///< would not start now; keep progress

  // Greedy (sched/greedy.cpp).
  kGreedyBestStretch = 3,        ///< resource minimizing this job's stretch
  kGreedySwitchMarginHold = 4,   ///< a move existed but missed the margin
  kGreedyWaitForOwnResource = 5, ///< own resource claimed; wait for it

  // SRPT (sched/srpt.cpp).
  kSrptShortestRemaining = 6,    ///< earliest uncontended completion
  kSrptWaitForOwnResource = 7,   ///< own resource claimed; wait for it

  // SSF-EDF (sched/ssf_edf.cpp).
  kDeadlineFeasibleLocal = 8,    ///< edge meets the deadline-driven target
  kDeadlineInfeasibleOnEdge = 9, ///< edge projection loses; delegate to cloud

  // FCFS (sched/fcfs.cpp).
  kFcfsArrivalOrder = 10,        ///< placement by release order

  // Edge-Only (sched/edge_only.cpp).
  kEdgeOnlyEdf = 11,             ///< per-edge EDF, never delegates

  // Fixed (sched/fixed.hpp).
  kFixedAssignment = 12,         ///< predetermined allocation replayed

  // Failover decorator (sched/failover.cpp).
  kFailoverBlacklist = 13,       ///< cloud written off after repeat faults
  kFailoverBackoff = 14,         ///< cloud inside its retry-backoff window
  kFailoverCrashEvacuation = 15, ///< cloud crashed and is still down
  kFailoverDegradeToEdge = 16,   ///< no healthy cloud (or edge faster)

  // Admission control (sim/engine.cpp, EngineConfig::admission). These are
  // engine decisions, not policy decisions: they annotate the
  // TracePoint::kReject / kShed instants and the SimResult admission log.
  kAdmissionQueueFull = 17,          ///< max_live cap reached
  kAdmissionStretchHopeless = 18,    ///< shed: worst stretch lower bound
  kAdmissionDeadlineInfeasible = 19, ///< shed: stretch_limit already missed
};

/// Stable snake-case name for logs, explain output and JSON.
[[nodiscard]] std::string to_string(ReasonCode reason);

/// Int -> enum with range check (for trace readers); out-of-range values
/// map to kUnspecified so old tools keep reading new traces.
[[nodiscard]] ReasonCode reason_from_int(int value) noexcept;

}  // namespace ecs
