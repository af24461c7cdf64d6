// sweep.hpp - Parameter sweeps with replication, the backbone of every
// figure reproduction.
//
// A sweep point is one x-axis value of a paper figure (a CCR, a load, a job
// count). For each point we draw `replications` independent instances
// (seeded deterministically from base_seed, point label and replication
// index), run every requested policy on each instance, and aggregate the
// per-instance metrics. Paper points average 1000 instances; the bench
// defaults are smaller so the suite finishes on modest hardware, and every
// binary accepts --reps to raise them.
//
// Every (replication, policy) run is one world on sim/batch.hpp's
// BatchEngine, which recycles resident engine cores across worlds; results
// are written into per-world slots and merged serially, so the aggregates
// do not depend on the thread count.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "exp/runner.hpp"
#include "obs/sketch.hpp"
#include "util/stats.hpp"

namespace ecs {

/// Builds the instance for one replication from a derived seed.
using InstanceFactory = std::function<Instance(std::uint64_t seed)>;

/// Builds the unannounced fault plan for one replication; receives the
/// replication's instance (for platform size / horizon) and its seed.
using FaultPlanFactory =
    std::function<FaultPlan(const Instance& instance, std::uint64_t seed)>;

struct PolicyAggregate {
  std::string policy;
  Accumulator max_stretch;
  Accumulator mean_stretch;
  Accumulator wall_seconds;
  Accumulator reassignments;
  Accumulator events;
  /// Distribution summaries across ALL jobs of ALL replications, without
  /// retaining per-job samples: every quantile estimate carries the
  /// sketch's relative-error bound (obs/sketch.hpp, default 1%). Each
  /// world fills a private per-replication sketch; the merge — exact,
  /// order-independent — happens serially afterwards.
  obs::QuantileSketch stretch_sketch;    ///< per-job stretch S_i
  obs::QuantileSketch flow_sketch;       ///< per-job flow time C_i - r_i
  obs::QuantileSketch queue_depth_sketch;///< per-replication max queue depth
};

struct SweepPointResult {
  std::string label;
  std::vector<PolicyAggregate> per_policy;

  [[nodiscard]] const PolicyAggregate& policy(const std::string& name) const;
};

struct SweepOptions {
  int replications = 30;  ///< at least 1; run_sweep_point throws otherwise
  std::uint64_t base_seed = 42;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  /// Index of this point within its sweep (>= 0; run_sweep_point throws
  /// otherwise), mixed into the replication seeds so two points whose
  /// labels collide (e.g. different values formatted to the same string)
  /// still draw distinct instances.
  int point_index = 0;
  /// Validate the recorded schedule on the first replication of each
  /// (point, policy) pair; throws if any constraint of section III-B fails
  /// (fault-aware when a fault plan is in play).
  bool validate_first = true;
  /// Optional per-replication unannounced fault plan (sim/faults.hpp);
  /// without one every run is fault-free.
  FaultPlanFactory fault_factory;
};

/// Runs one sweep point: `factory(seed)` provides the instances, every
/// policy in `policies` runs on every replication. Throws
/// std::invalid_argument when options.replications < 1 or
/// options.point_index < 0.
[[nodiscard]] SweepPointResult run_sweep_point(
    const std::string& label, const InstanceFactory& factory,
    const std::vector<std::string>& policies, const SweepOptions& options);

/// SplitMix64 chain over (base, point index, label, replication): the seed
/// every sweep replication draws its instance and fault plan from. Equal
/// labels at different indices yield distinct seed streams
/// (tests/test_exp.cpp pins this and one value of the chain). Throws
/// std::invalid_argument naming the value when point_index < 0.
[[nodiscard]] std::uint64_t sweep_seed(std::uint64_t base, int point_index,
                                       const std::string& label,
                                       int replication);

}  // namespace ecs
