// state.hpp - The vocabulary of per-job state inside the event-driven
// simulator: activities, events, and the fields a policy reads per job.
//
// A live job is, at any instant, either idle (waiting for a resource) or
// performing exactly one activity: its uplink communication, its execution,
// or its downlink communication. The engine tracks the remaining amounts for
// the job's *current* allocation (soa::StatePool); the paper's re-execution
// rule (no migration, restart from scratch allowed) is implemented by
// resetting these amounts whenever the allocation changes.
#pragma once

#include <string>

#include "core/job.hpp"
#include "core/schedule.hpp"
#include "core/time.hpp"

namespace ecs {

enum class Activity { kNone, kUplink, kCompute, kDownlink };

[[nodiscard]] std::string to_string(Activity activity);

/// The four event kinds of the paper (section V): release, end of uplink,
/// end of execution, end of downlink — plus the fault extension's two:
/// kFault (an unannounced cloud crash or a lost message; this is the first
/// time a policy learns about it) and kRecovery (a crashed cloud came back).
enum class EventKind {
  kRelease,
  kUplinkDone,
  kComputeDone,
  kDownlinkDone,
  kFault,
  kRecovery,
};

struct Event {
  EventKind kind;
  JobId job;  ///< affected job; -1 for cloud-level kFault / kRecovery
  Time time;
  /// Cloud processor involved in a kFault / kRecovery event; -1 otherwise.
  int cloud = -1;
};

[[nodiscard]] std::string to_string(EventKind kind);

/// The per-job state a policy reads, gathered by value (plus a pointer to
/// the static Job). SimView::fields() fills it from the engine's SoA
/// component arrays, and the projection / policy helpers take it as input.
struct JobFields {
  const Job* job = nullptr;
  double best_time = 0.0;        ///< min(t^e, t^c): stretch denominator
  int alloc = kAllocUnassigned;  ///< current allocation (kAllocEdge / cloud)
  double rem_up = 0.0;    ///< remaining uplink time (cloud alloc only)
  double rem_work = 0.0;  ///< remaining work, in work units
  double rem_down = 0.0;  ///< remaining downlink time
};

}  // namespace ecs
