// Tests for the heterogeneous-cloud extension (paper section II notes the
// model extends straightforwardly to heterogeneous cloud processors; this
// library implements that extension end-to-end: platform, engine,
// projection, validator, policies, serialization).
#include <gtest/gtest.h>

#include <sstream>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "exp/runner.hpp"
#include "sched/factory.hpp"
#include "sched/fixed.hpp"
#include "sim/engine.hpp"
#include "sim/projection.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"
#include "workloads/trace_io.hpp"

namespace ecs {
namespace {

TEST(HeteroCloud, PlatformAccessors) {
  const Platform p({0.5}, std::vector<double>{1.0, 2.0, 0.5});
  EXPECT_EQ(p.cloud_count(), 3);
  EXPECT_DOUBLE_EQ(p.cloud_speed(1), 2.0);
  EXPECT_FALSE(p.homogeneous_cloud());
  EXPECT_DOUBLE_EQ(p.max_cloud_speed(), 2.0);
  EXPECT_DOUBLE_EQ(p.total_speed(), 4.0);
  EXPECT_TRUE(Platform({0.5}, 2).homogeneous_cloud());
}

TEST(HeteroCloud, CloudSpeedsMayExceedOne) {
  EXPECT_NO_THROW(Platform({0.5}, std::vector<double>{4.0}));
  EXPECT_THROW(Platform({0.5}, std::vector<double>{0.0}),
               std::invalid_argument);
  EXPECT_THROW(Platform({0.5}, std::vector<double>{-1.0}),
               std::invalid_argument);
}

TEST(HeteroCloud, ExecutionTimesUseCloudSpeed) {
  const Platform p({0.5}, std::vector<double>{1.0, 2.0});
  const Job job{0, 0, 4.0, 0.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(p.cloud_time_on(job, 0), 6.0);  // 1 + 4/1 + 1
  EXPECT_DOUBLE_EQ(p.cloud_time_on(job, 1), 4.0);  // 1 + 4/2 + 1
  // Best cloud time uses the fastest processor.
  EXPECT_DOUBLE_EQ(p.cloud_time(job), 4.0);
  EXPECT_DOUBLE_EQ(p.best_time(job), 4.0);  // edge would be 8
}

TEST(HeteroCloud, EngineComputesAtCloudSpeed) {
  Instance instance;
  instance.platform = Platform({0.5}, std::vector<double>{2.0});
  instance.jobs = {{0, 0, 4.0, 0.0, 1.0, 1.0}};
  FixedPolicy policy({0}, {0.0});
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // up 1 + work 4/2 + down 1.
  EXPECT_NEAR(result.completions[0], 4.0, 1e-9);
  EXPECT_NEAR(result.schedule.job(0).final_run.exec.measure(), 2.0, 1e-9);
}

TEST(HeteroCloud, ValidatorChecksSpeedScaledQuantity) {
  Instance instance;
  instance.platform = Platform({0.5}, std::vector<double>{2.0});
  instance.jobs = {{0, 0, 4.0, 0.0, 1.0, 1.0}};
  Schedule schedule(1);
  schedule.job(0).final_run.alloc = 0;
  schedule.job(0).final_run.uplink.add(0.0, 1.0);
  schedule.job(0).final_run.exec.add(1.0, 2.0);  // needs 2 time units
  schedule.job(0).final_run.downlink.add(2.0, 3.0);
  EXPECT_FALSE(is_valid_schedule(instance, schedule));
  schedule.job(0).final_run.exec.add(2.0, 3.0);  // now 2 units... overlaps
  // Rebuild cleanly: exec [1, 3), downlink [3, 4).
  Schedule good(1);
  good.job(0).final_run.alloc = 0;
  good.job(0).final_run.uplink.add(0.0, 1.0);
  good.job(0).final_run.exec.add(1.0, 3.0);
  good.job(0).final_run.downlink.add(3.0, 4.0);
  EXPECT_TRUE(is_valid_schedule(instance, good));
}

TEST(HeteroCloud, ProjectionUsesCloudSpeed) {
  const Platform p({0.5}, std::vector<double>{1.0, 4.0});
  const Job job{0, 0, 8.0, 0.0, 1.0, 1.0};
  const JobFields f{&job, p.best_time(job)};
  EXPECT_DOUBLE_EQ(uncontended_completion(p, f, 0, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(uncontended_completion(p, f, 1, 0.0), 4.0);
  EXPECT_EQ(fastest_cloud(p), 1);
  EXPECT_DOUBLE_EQ(best_uncontended_completion(p, f, 0.0), 4.0);
  ResourceClock clock(p, 0.0);
  EXPECT_DOUBLE_EQ(clock.project(p, f, 1), 4.0);
  const auto [target, done] = clock.best_target_sticky(p, f);
  EXPECT_EQ(target, 1);
  EXPECT_DOUBLE_EQ(done, 4.0);
}

TEST(HeteroCloud, PoliciesPreferFasterCloud) {
  Instance instance;
  instance.platform = Platform({0.2}, std::vector<double>{1.0, 3.0});
  instance.jobs = {{0, 0, 6.0, 0.0, 0.5, 0.5}};
  for (const char* name : {"greedy", "srpt", "ssf-edf", "fcfs"}) {
    const auto policy = make_policy(name);
    const SimResult result = simulate(instance, *policy);
    require_valid_schedule(instance, result.schedule);
    EXPECT_EQ(result.schedule.job(0).final_run.alloc, 1) << name;
    EXPECT_NEAR(result.completions[0], 3.0, 1e-9) << name;  // .5 + 2 + .5
  }
}

TEST(HeteroCloud, AllPoliciesValidOnRandomHeteroPlatform) {
  RandomInstanceConfig cfg;
  cfg.n = 60;
  cfg.cloud_count = 0;  // platform replaced below
  cfg.slow_edges = 3;
  cfg.fast_edges = 3;
  Rng rng(21);
  Instance instance = make_random_instance(cfg, rng);
  instance.platform = Platform(instance.platform.edge_speeds(),
                               std::vector<double>{0.5, 1.0, 2.0, 4.0});
  for (const std::string& name : policy_names()) {
    RunOptions options;
    options.validate = true;
    const RunOutcome outcome = run_policy(instance, name, options);
    EXPECT_TRUE(outcome.validated) << name;
    EXPECT_GE(outcome.metrics.max_stretch, 1.0 - 1e-6) << name;
  }
}

TEST(HeteroCloud, TraceIoRoundTrip) {
  Instance instance;
  instance.platform = Platform({0.5, 0.25}, std::vector<double>{1.5, 0.75});
  instance.jobs = {{0, 1, 2.0, 0.5, 1.0, 0.0}};
  std::stringstream buffer;
  save_instance(buffer, instance);
  EXPECT_NE(buffer.str().find("cloud_speeds"), std::string::npos);
  const Instance loaded = load_instance(buffer);
  EXPECT_EQ(loaded.platform, instance.platform);
  EXPECT_FALSE(loaded.platform.homogeneous_cloud());
}

TEST(HeteroCloud, FasterCloudImprovesResponses) {
  // Upgrading a cloud processor cannot hurt absolute response times on
  // average (stretch is the wrong yardstick here: a faster cloud also
  // shrinks the denominators min(t^e, t^c), so per-job stretches may rise
  // even as every job finishes sooner). Statistical over seeds with slack.
  double base_total = 0.0;
  double fast_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomInstanceConfig cfg;
    cfg.n = 80;
    cfg.cloud_count = 0;
    cfg.slow_edges = 2;
    cfg.fast_edges = 2;
    cfg.load = 0.4;
    Rng rng(seed);
    Instance instance = make_random_instance(cfg, rng);
    instance.platform =
        Platform(instance.platform.edge_speeds(), std::vector<double>{1.0, 1.0});
    base_total += run_policy(instance, "ssf-edf", RunOptions{})
                      .metrics.mean_response;
    instance.platform =
        Platform(instance.platform.edge_speeds(), std::vector<double>{1.0, 3.0});
    fast_total += run_policy(instance, "ssf-edf", RunOptions{})
                      .metrics.mean_response;
  }
  EXPECT_LE(fast_total, base_total * 1.05);
}

}  // namespace
}  // namespace ecs
