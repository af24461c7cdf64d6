// runner.hpp - Runs one policy on one instance and collects everything the
// reports need.
#pragma once

#include <string>

#include "core/metrics.hpp"
#include "sim/engine.hpp"

namespace ecs {

struct RunOptions {
  /// Record the interval history and run the section III-B validator on it
  /// (fault-aware when engine.faults is nonempty). Recording costs memory
  /// and the validator costs time, so sweeps enable this only on their
  /// first replication — which is enough to catch a systematically invalid
  /// policy.
  bool validate = false;
  EngineConfig engine;  ///< includes the unannounced fault plan, if any
};

struct RunOutcome {
  std::string policy;
  ScheduleMetrics metrics;
  SimStats stats;
  double wall_seconds = 0.0;  ///< end-to-end simulate() wall time
  bool validated = false;     ///< schedule passed the validator
};

/// Simulates `policy` over `instance`. Throws on invalid schedules (when
/// options.validate is set) and on engine errors (stall / progress watchdog).
[[nodiscard]] RunOutcome run_policy(const Instance& instance, Policy& policy,
                                    const RunOptions& options = {});

/// Convenience: constructs the policy by name via the factory.
[[nodiscard]] RunOutcome run_policy(const Instance& instance,
                                    const std::string& policy_name,
                                    const RunOptions& options = {});

}  // namespace ecs
