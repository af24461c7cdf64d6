// Metamorphic tests: transformations of an instance with a known effect on
// the optimal/heuristic stretches.
//
//  * Time-scale invariance: multiplying every duration (work, up, down,
//    release) by a constant c > 0 leaves all stretches unchanged — stretch
//    is a dimensionless ratio, and every policy in this library makes
//    decisions from ratios and orderings only.
//  * Adding cloud capacity (statistically) never hurts SSF-EDF.
//  * Removing a job never increases the remaining jobs' optimal stretch on
//    a single machine.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "sched/factory.hpp"
#include "sched/offline/single_machine.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

Instance scaled(const Instance& instance, double c) {
  Instance out = instance;
  for (Job& job : out.jobs) {
    job.work *= c;
    job.release *= c;
    job.up *= c;
    job.down *= c;
  }
  return out;
}

class ScaleInvariance
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ScaleInvariance, StretchesUnchanged) {
  const auto& [policy_name, factor] = GetParam();
  RandomInstanceConfig cfg;
  cfg.n = 60;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = 0.3;
  Rng rng(41);
  const Instance base = make_random_instance(cfg, rng);
  const Instance big = scaled(base, factor);

  const auto p1 = make_policy(policy_name);
  const auto p2 = make_policy(policy_name);
  const ScheduleMetrics a =
      metrics_from_completions(base, simulate(base, *p1).completions);
  const ScheduleMetrics b =
      metrics_from_completions(big, simulate(big, *p2).completions);
  // Relative tolerance: the policies' binary searches have relative
  // epsilons, so tiny drifts are expected; structural decisions must not
  // change.
  EXPECT_NEAR(a.max_stretch / b.max_stretch, 1.0, 1e-3)
      << policy_name << " x" << factor;
  EXPECT_NEAR(a.mean_stretch / b.mean_stretch, 1.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndFactors, ScaleInvariance,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "ssf-edf", "fcfs"),
                       ::testing::Values(0.125, 8.0)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, double>>&
           param_info) {
      std::string name = std::get<0>(param_info.param) + "_x" +
                         std::to_string(static_cast<int>(
                             std::get<1>(param_info.param) * 1000));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Metamorphic, MoreCloudNeverHurtsSsfEdfOnAverage) {
  double small_total = 0.0;
  double large_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomInstanceConfig cfg;
    cfg.n = 80;
    cfg.slow_edges = 2;
    cfg.fast_edges = 2;
    cfg.load = 0.4;
    cfg.cloud_count = 2;
    Rng rng1(seed);
    Instance instance = make_random_instance(cfg, rng1);
    const auto p1 = make_policy("ssf-edf");
    small_total +=
        metrics_from_completions(instance, simulate(instance, *p1).completions)
            .max_stretch;
    // Same jobs, doubled cloud. (The platform change does not alter the
    // stretch denominators: cloud speed stays 1.)
    instance.platform = Platform(instance.platform.edge_speeds(), 4);
    const auto p2 = make_policy("ssf-edf");
    large_total +=
        metrics_from_completions(instance, simulate(instance, *p2).completions)
            .max_stretch;
  }
  EXPECT_LE(large_total, small_total * 1.02);
}

TEST(Metamorphic, RemovingAJobNeverHurtsSingleMachineOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<SmJob> jobs;
    for (int i = 0; i < 10; ++i) {
      jobs.push_back(SmJob{rng.uniform(0.5, 6.0), rng.uniform(0.0, 20.0),
                           0.0});
    }
    const double full = optimal_max_stretch_single_machine(jobs).max_stretch;
    for (std::size_t drop = 0; drop < jobs.size(); drop += 3) {
      std::vector<SmJob> fewer = jobs;
      fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(drop));
      const double reduced =
          optimal_max_stretch_single_machine(fewer).max_stretch;
      EXPECT_LE(reduced, full + 1e-6) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace ecs
