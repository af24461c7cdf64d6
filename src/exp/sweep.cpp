#include "exp/sweep.hpp"

#include <stdexcept>

#include "core/validate.hpp"
#include "sched/factory.hpp"
#include "sim/batch.hpp"
#include "util/rng.hpp"

namespace ecs {

const PolicyAggregate& SweepPointResult::policy(
    const std::string& name) const {
  for (const PolicyAggregate& agg : per_policy) {
    if (agg.policy == name) return agg;
  }
  throw std::out_of_range("no aggregate for policy " + name);
}

std::uint64_t sweep_seed(std::uint64_t base, int point_index,
                         const std::string& label, int replication) {
  if (point_index < 0) {
    throw std::invalid_argument("sweep_seed: point index must be >= 0, got " +
                                std::to_string(point_index));
  }
  // +1 keeps the index link distinct from any meaningful tag at 0.
  std::uint64_t seed =
      derive_seed(base, static_cast<std::uint64_t>(point_index) + 1);
  seed = derive_seed(seed, hash_tag(label));
  return derive_seed(seed, static_cast<std::uint64_t>(replication));
}

namespace {

/// One outcome slot per (replication, policy) world; filled concurrently
/// by the batch workers, merged serially so aggregation order is
/// deterministic regardless of thread interleaving.
struct RepSlot {
  double max_stretch = 0.0;
  double mean_stretch = 0.0;
  double wall_seconds = 0.0;
  double reassignments = 0.0;
  double events = 0.0;
  double max_queue_depth = 0.0;
  obs::QuantileSketch stretch;  ///< per-job stretches of this replication
  obs::QuantileSketch flow;     ///< per-job flow times of this replication
};

void fill_slot(RepSlot& slot, const ScheduleMetrics& metrics,
               const SimStats& stats, double wall_seconds) {
  slot.max_stretch = metrics.max_stretch;
  slot.mean_stretch = metrics.mean_stretch;
  slot.wall_seconds = wall_seconds;
  slot.reassignments = static_cast<double>(stats.reassignments);
  slot.events = static_cast<double>(stats.events);
  slot.max_queue_depth = static_cast<double>(stats.max_queue_depth);
  for (const JobMetrics& jm : metrics.per_job) {
    slot.stretch.observe(jm.stretch);
    slot.flow.observe(jm.response);
  }
}

}  // namespace

SweepPointResult run_sweep_point(const std::string& label,
                                 const InstanceFactory& factory,
                                 const std::vector<std::string>& policies,
                                 const SweepOptions& options) {
  const int reps = options.replications;
  if (reps < 1) {
    throw std::invalid_argument("run_sweep_point: replications must be >= 1, "
                                "got " + std::to_string(reps));
  }
  SweepPointResult result;
  result.label = label;
  result.per_policy.resize(policies.size());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    result.per_policy[p].policy = policies[p];
  }

  const std::size_t n_policies = policies.size();
  std::vector<RepSlot> slots(static_cast<std::size_t>(reps) * n_policies);
  // Each (replication, policy) pair is a world on a resident engine core.
  // Every policy of a replication faces the same instance and fault plan;
  // replication 0 records and validates its schedule.
  BatchOptions batch_options;
  batch_options.threads = options.threads;
  BatchEngine batch(
      n_policies,
      [&policies](std::size_t p) { return make_policy(policies[p]); },
      batch_options);
  // Drawn up front, so a negative point index (which sweep_seed rejects)
  // fails before any world runs.
  std::vector<std::uint64_t> seeds;
  for (int rep = 0; rep < reps; ++rep) {
    seeds.push_back(
        sweep_seed(options.base_seed, options.point_index, label, rep));
  }
  batch.run(
      slots.size(),
      [&](std::size_t index, Instance& instance, WorldSetup& setup) {
        const std::size_t rep = index / n_policies;
        const std::uint64_t seed = seeds[rep];
        instance = factory(seed);
        setup.policy = index % n_policies;
        if (options.fault_factory) {
          setup.config.faults = options.fault_factory(instance, seed);
        }
        setup.config.record_schedule = options.validate_first && rep == 0;
        // The batch driver times whole worlds itself; the per-decision
        // policy timer's clock reads are pure overhead at this scale.
        setup.config.time_policy = false;
      },
      [&](std::size_t index, const Instance& instance, SimResult& run,
          double wall_seconds) {
        const std::size_t rep = index / n_policies;
        ScheduleMetrics metrics;
        if (options.validate_first && rep == 0) {
          // Re-derive the world's fault plan for the fault-aware validator
          // (the factories are deterministic in (instance, seed)).
          FaultPlan faults;
          if (options.fault_factory) {
            faults = options.fault_factory(instance, seeds[rep]);
          }
          require_valid_schedule(instance, run.schedule, faults);
          metrics = compute_metrics(instance, run.schedule);
        } else {
          metrics = metrics_from_completions(instance, run.completions);
        }
        fill_slot(slots[index], metrics, run.stats, wall_seconds);
      });

  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t p = 0; p < n_policies; ++p) {
      const RepSlot& slot = slots[rep * n_policies + p];
      PolicyAggregate& agg = result.per_policy[p];
      agg.max_stretch.add(slot.max_stretch);
      agg.mean_stretch.add(slot.mean_stretch);
      agg.wall_seconds.add(slot.wall_seconds);
      agg.reassignments.add(slot.reassignments);
      agg.events.add(slot.events);
      agg.stretch_sketch.merge(slot.stretch);
      agg.flow_sketch.merge(slot.flow);
      agg.queue_depth_sketch.observe(slot.max_queue_depth);
    }
  }
  return result;
}

}  // namespace ecs
