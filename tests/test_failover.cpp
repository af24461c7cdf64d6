// Tests for the Failover decorator (sched/failover.hpp): exact transparency
// in fault-free runs, rerouting and evacuation under crashes, exponential
// backoff, blacklisting after repeated faults, graceful degradation to the
// edge, and the end-to-end guarantee that wrapping never loses to the naive
// base policy when faults are present.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "exp/runner.hpp"
#include "run_digest.hpp"
#include "sched/factory.hpp"
#include "sched/failover.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

FaultPlan crash_plan(CloudId cloud, Time begin, Time end) {
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{FaultKind::kCrash, cloud, begin, end});
  return plan;
}

TEST(Failover, FactoryPrefixAndName) {
  EXPECT_EQ(make_policy("failover-srpt")->name(), "Failover(SRPT)");
  EXPECT_EQ(make_policy("failover:greedy")->name(), "Failover(Greedy)");
  EXPECT_EQ(make_policy("failover-ssf-edf")->name(), "Failover(SSF-EDF)");
  EXPECT_THROW((void)make_policy("failover-nonsense"),
               std::invalid_argument);
}

TEST(Failover, ConfigValidation) {
  EXPECT_THROW(FailoverPolicy(nullptr), std::invalid_argument);
  FailoverConfig bad;
  bad.backoff_base = 0.0;
  EXPECT_THROW(FailoverPolicy(make_policy("greedy"), bad),
               std::invalid_argument);
  bad = FailoverConfig{};
  bad.blacklist_after = 0;
  EXPECT_THROW(FailoverPolicy(make_policy("greedy"), bad),
               std::invalid_argument);
}

TEST(Failover, ExactNoOpWithoutFaults) {
  // With an empty fault plan the wrapper must reproduce the base policy's
  // completion times EXACTLY — bit-identical, not merely close.
  RandomInstanceConfig cfg;
  cfg.n = 80;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = 0.3;
  for (const char* base : {"greedy", "srpt", "ssf-edf", "fcfs"}) {
    Rng rng(2026);
    const Instance instance = make_random_instance(cfg, rng);
    const auto naked = make_policy(base);
    const SimResult plain = simulate(instance, *naked);
    FailoverPolicy wrapped(make_policy(base));
    const SimResult guarded = simulate(instance, wrapped);
    expect_same_run(Variant{guarded, {}}, Variant{plain, {}},
                    std::string("failover-wrapped ") + base);
  }
}

TEST(Failover, ReroutesAfterCrash) {
  // Cloud 0 (the fastest) crashes for a long window right after the upload
  // finished. The naive greedy policy re-assigns the job straight back to
  // cloud 0 and waits out the repair; failover observes the fault and
  // reroutes to cloud 1, finishing long before the repair.
  Instance instance;
  instance.platform = Platform({0.01}, {2.0, 1.0});
  instance.jobs = {{0, 0, 8.0, 0.0, 1.0, 1.0}};
  const FaultPlan plan = crash_plan(0, 2.0, 500.0);

  EngineConfig config;
  config.faults = plan;
  const auto naive = make_policy("greedy");
  const SimResult plain = simulate(instance, *naive, config);
  FailoverPolicy wrapped(make_policy("greedy"));
  const SimResult guarded = simulate(instance, wrapped, config);

  require_valid_schedule(instance, plain.schedule, plan);
  require_valid_schedule(instance, guarded.schedule, plan);
  // Rerouted: up 1 + work 8/1.0 + down 1 after the crash at 2 => ~12; the
  // naive run cannot finish before the repair at 500.
  EXPECT_LT(guarded.completions[0], 20.0);
  EXPECT_GT(plain.completions[0], 500.0);
  EXPECT_EQ(wrapped.fault_count(0), 1);
  EXPECT_FALSE(wrapped.blacklisted(0));
}

TEST(Failover, DegradesToEdgeWhenNoCloudLeft) {
  // Single cloud, crashed for practically the whole run: after the fault
  // there is no healthy cloud, so the job must fall back to its origin
  // edge even though the edge is slow.
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, 4.0, 0.0, 1.0, 1.0}};
  const FaultPlan plan = crash_plan(0, 1.5, 10000.0);
  EngineConfig config;
  config.faults = plan;
  FailoverPolicy wrapped(make_policy("greedy"));
  const SimResult guarded = simulate(instance, wrapped, config);
  require_valid_schedule(instance, guarded.schedule, plan);
  // Edge execution from the crash instant: 1.5 + 4/0.5 = 9.5.
  EXPECT_NEAR(guarded.completions[0], 9.5, 1e-9);
  EXPECT_EQ(guarded.schedule.job(0).final_run.alloc, kAllocEdge);
}

TEST(Failover, BlacklistsRepeatOffender) {
  // Cloud 0 crashes three times in a row (short repairs); with
  // blacklist_after = 3 the third incident writes it off even after its
  // recovery, and new placements keep avoiding it forever.
  Instance instance;
  instance.platform = Platform({0.05}, 1);
  // A stream of jobs so the policy keeps placing after each recovery.
  instance.jobs = {{0, 0, 5.0, 0.0, 1.0, 1.0},
                   {1, 0, 5.0, 60.0, 1.0, 1.0},
                   {2, 0, 5.0, 120.0, 1.0, 1.0},
                   {3, 0, 5.0, 180.0, 1.0, 1.0}};
  FaultPlan plan;
  plan.faults = {FaultSpec{FaultKind::kCrash, 0, 2.0, 10.0},
                 FaultSpec{FaultKind::kCrash, 0, 62.0, 70.0},
                 FaultSpec{FaultKind::kCrash, 0, 122.0, 130.0}};
  EngineConfig config;
  config.faults = plan;
  FailoverConfig fo;
  fo.backoff_base = 5.0;
  fo.blacklist_after = 3;
  FailoverPolicy wrapped(make_policy("greedy"), fo);
  const SimResult guarded = simulate(instance, wrapped, config);
  require_valid_schedule(instance, guarded.schedule, plan);
  EXPECT_EQ(wrapped.fault_count(0), 3);
  EXPECT_TRUE(wrapped.blacklisted(0));
  // The post-blacklist job never touches the cloud again.
  EXPECT_EQ(guarded.schedule.job(3).final_run.alloc, kAllocEdge);
  EXPECT_TRUE(guarded.schedule.job(3).abandoned.empty());
}

TEST(Failover, BackoffDefersReplacementAfterLoss) {
  // An uplink loss on the only cloud puts it in a backoff window; the next
  // job released inside the window is placed on the edge instead, even
  // though the cloud is up.
  Instance instance;
  instance.platform = Platform({0.2}, 1);
  instance.jobs = {{0, 0, 4.0, 0.0, 2.0, 1.0},
                   {1, 0, 1.0, 3.0, 0.5, 0.5}};
  FaultPlan plan;
  plan.faults = {FaultSpec{FaultKind::kUplinkLoss, 0, 1.0, 1.0}};
  EngineConfig config;
  config.faults = plan;
  FailoverConfig fo;
  fo.backoff_base = 50.0;  // covers job 1's whole release window
  FailoverPolicy wrapped(make_policy("greedy"), fo);
  const SimResult guarded = simulate(instance, wrapped, config);
  require_valid_schedule(instance, guarded.schedule, plan);
  // Losses trigger backoff but never count toward the blacklist.
  EXPECT_EQ(wrapped.fault_count(0), 0);
  EXPECT_FALSE(wrapped.blacklisted(0));
  EXPECT_EQ(guarded.schedule.job(1).final_run.alloc, kAllocEdge);
}

TEST(Failover, BeatsNaiveUnderFaults) {
  // End-to-end acceptance check: on random instances with a recurring
  // crash plan, every wrapped policy achieves a max-stretch no worse than
  // its naive counterpart, and strictly better in aggregate.
  RandomInstanceConfig cfg;
  cfg.n = 50;
  cfg.cloud_count = 2;
  cfg.slow_edges = 2;
  cfg.fast_edges = 1;
  cfg.load = 0.3;
  FaultConfig fault_cfg;
  fault_cfg.crash_rate = 0.01;
  fault_cfg.mean_repair = 150.0;
  fault_cfg.horizon = 3000.0;

  double naive_total = 0.0;
  double wrapped_total = 0.0;
  for (const char* base : {"greedy", "srpt", "ssf-edf"}) {
    for (std::uint64_t seed : {11u, 22u, 33u}) {
      Rng rng(seed);
      const Instance instance = make_random_instance(cfg, rng);
      Rng fault_rng(derive_seed(seed, hash_tag("faults")));
      EngineConfig config;
      config.faults = make_fault_plan(cfg.cloud_count, fault_cfg, fault_rng);
      config.record_schedule = false;

      const auto naive = make_policy(base);
      const SimResult plain = simulate(instance, *naive, config);
      const auto wrapped = make_policy(std::string("failover-") + base);
      const SimResult guarded = simulate(instance, *wrapped, config);

      const double naive_stretch =
          metrics_from_completions(instance, plain.completions).max_stretch;
      const double wrapped_stretch =
          metrics_from_completions(instance, guarded.completions)
              .max_stretch;
      naive_total += naive_stretch;
      wrapped_total += wrapped_stretch;
    }
  }
  EXPECT_LT(wrapped_total, naive_total);
}

TEST(Failover, SurvivesValidationOnRandomFaultyRuns) {
  RandomInstanceConfig cfg;
  cfg.n = 40;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 1;
  cfg.load = 0.25;
  FaultConfig fault_cfg;
  fault_cfg.crash_rate = 0.008;
  fault_cfg.mean_repair = 80.0;
  fault_cfg.loss_rate = 0.01;
  fault_cfg.horizon = 2500.0;
  for (const char* name :
       {"failover-greedy", "failover-srpt", "failover-ssf-edf",
        "failover-edge-only"}) {
    Rng rng(404);
    const Instance instance = make_random_instance(cfg, rng);
    Rng fault_rng(405);
    RunOptions options;
    options.validate = true;
    options.engine.faults =
        make_fault_plan(cfg.cloud_count, fault_cfg, fault_rng);
    const RunOutcome outcome = run_policy(instance, name, options);
    EXPECT_TRUE(outcome.validated) << name;
    EXPECT_GE(outcome.metrics.max_stretch, 1.0 - 1e-6) << name;
  }
}

}  // namespace
}  // namespace ecs
