// Edge-case tests for the simulation engine: degenerate communication
// times, extreme contention, combined extensions (heterogeneous clouds +
// outages), and consistency between recording modes.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "sched/factory.hpp"
#include "sched/fixed.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

TEST(EngineEdge, ZeroUplinkNonzeroDownlink) {
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, 2.0, 0.0, 0.0, 1.5}};
  FixedPolicy policy({0}, {0.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // exec [0,2), down [2,3.5).
  EXPECT_NEAR(result.completions[0], 3.5, 1e-9);
  EXPECT_TRUE(result.schedule.job(0).final_run.uplink.empty());
  EXPECT_NEAR(result.schedule.job(0).final_run.downlink.measure(), 1.5,
              1e-9);
}

TEST(EngineEdge, ManyJobsOneProcessorSerialize) {
  Instance instance;
  instance.platform = Platform({1.0}, 0);
  std::vector<double> priorities;
  for (int i = 0; i < 50; ++i) {
    instance.jobs.push_back(Job{i, 0, 1.0, 0.0, 0.0, 0.0});
    priorities.push_back(static_cast<double>(i));
  }
  FixedPolicy policy(std::vector<int>(50, kAllocEdge), priorities);
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NEAR(result.completions[i], i + 1.0, 1e-6);
  }
}

TEST(EngineEdge, TinyAndHugeWorksCoexist) {
  Instance instance;
  instance.platform = Platform({1.0}, 1);
  instance.jobs = {{0, 0, 1e-4, 0.0, 1e-5, 1e-5},
                   {1, 0, 1e4, 0.0, 1.0, 1.0}};
  const auto policy = make_policy("srpt");
  const SimResult result = simulate(instance, *policy);
  require_valid_schedule(instance, result.schedule);
  EXPECT_LT(result.completions[0], 1.0);
  EXPECT_GT(result.completions[1], 1e3);
}

TEST(EngineEdge, RecordingModesAgreeOnCompletions) {
  RandomInstanceConfig cfg;
  cfg.n = 120;
  cfg.cloud_count = 4;
  cfg.slow_edges = 3;
  cfg.fast_edges = 3;
  cfg.load = 0.4;
  Rng rng(17);
  const Instance instance = make_random_instance(cfg, rng);
  for (const std::string& name : policy_names()) {
    const auto p1 = make_policy(name);
    EngineConfig with;
    with.record_schedule = true;
    const SimResult a = simulate(instance, *p1, with);
    const auto p2 = make_policy(name);
    EngineConfig without;
    without.record_schedule = false;
    const SimResult b = simulate(instance, *p2, without);
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
      EXPECT_EQ(a.completions[i], b.completions[i]) << name << " J" << i;
    }
  }
}

TEST(EngineEdge, HeterogeneousCloudsWithOutagesCombined) {
  Instance instance;
  instance.platform = Platform({0.25}, std::vector<double>{0.5, 2.0});
  instance.jobs = {{0, 0, 4.0, 0.0, 0.5, 0.5},
                   {1, 0, 2.0, 0.0, 0.5, 0.5},
                   {2, 0, 1.0, 1.0, 0.2, 0.2}};
  instance.cloud_outages.resize(2);
  instance.cloud_outages[1].add(1.0, 4.0);  // fast cloud out early
  for (const std::string& name : policy_names()) {
    const auto policy = make_policy(name);
    const SimResult result = simulate(instance, *policy);
    const auto violations = validate_schedule(instance, result.schedule);
    EXPECT_TRUE(violations.empty())
        << name << ": "
        << (violations.empty() ? "" : to_string(violations.front()));
  }
}

TEST(EngineEdge, OutageExactlyAtActivityBoundary) {
  // The outage starts exactly when the uplink ends: the compute phase must
  // wait for the outage to clear.
  Instance instance;
  instance.platform = Platform({0.1}, 1);
  instance.jobs = {{0, 0, 1.0, 0.0, 2.0, 0.0}};
  instance.cloud_outages.resize(1);
  instance.cloud_outages[0].add(2.0, 5.0);
  FixedPolicy policy({0}, {0.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // up [0,2), outage [2,5), exec [5,6).
  EXPECT_NEAR(result.completions[0], 6.0, 1e-9);
}

TEST(EngineEdge, BackToBackOutages) {
  Instance instance;
  instance.platform = Platform({0.1}, 1);
  instance.jobs = {{0, 0, 3.0, 0.0, 0.0, 0.0}};
  instance.cloud_outages.resize(1);
  instance.cloud_outages[0].add(1.0, 2.0);
  instance.cloud_outages[0].add(3.0, 4.0);
  instance.cloud_outages[0].add(5.0, 6.0);
  FixedPolicy policy({0}, {0.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // exec pieces: [0,1), [2,3), [4,5), then remaining 0 -> done at 5? The
  // job needs 3 units: [0,1) + [2,3) + [4,5) = 3 -> completes at 5.
  EXPECT_NEAR(result.completions[0], 5.0, 1e-9);
  EXPECT_EQ(result.schedule.job(0).final_run.exec.size(), 3u);
}

TEST(EngineEdge, SimultaneousCompletionsAcrossResources) {
  // Two jobs finishing at exactly the same instant on different resources.
  Instance instance;
  instance.platform = Platform({1.0, 1.0}, 0);
  instance.jobs = {{0, 0, 3.0, 0.0, 0.0, 0.0}, {1, 1, 3.0, 0.0, 0.0, 0.0}};
  FixedPolicy policy({kAllocEdge, kAllocEdge}, {0.0, 0.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  EXPECT_NEAR(result.completions[0], 3.0, 1e-9);
  EXPECT_NEAR(result.completions[1], 3.0, 1e-9);
}

TEST(EngineEdge, LongSimulationTimescale) {
  // Large absolute times must not break epsilon handling.
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, 2.0, 1e6, 1.0, 1.0},
                   {1, 0, 3.0, 1e6 + 2.0, 0.5, 0.5}};
  const auto policy = make_policy("ssf-edf");
  const SimResult result = simulate(instance, *policy);
  require_valid_schedule(instance, result.schedule);
  const ScheduleMetrics m = compute_metrics(instance, result.schedule);
  EXPECT_GE(m.max_stretch, 1.0 - 1e-6);
  EXPECT_LT(m.max_stretch, 10.0);
}

}  // namespace
}  // namespace ecs
