// Property-based tests: every policy, over many randomized instances, must
// uphold the invariants of the model (paper section III).
//
// Parameterized over (policy, scenario, seed). For each combination the
// engine runs the policy, the independent section III-B validator checks
// the recorded schedule, and global invariants are asserted:
//   * every job completes, at or after its release date;
//   * every stretch is >= 1 (nothing beats a dedicated platform);
//   * completions reported by the engine equal the schedule's;
//   * jobs never run below the release date, quantities are fulfilled
//     (all enforced inside the validator);
//   * the engine is deterministic: same instance + policy => identical
//     completion vector.
#include <gtest/gtest.h>

#include <memory>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/kang_instances.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

struct Scenario {
  std::string name;
  std::function<Instance(std::uint64_t)> make;
};

Instance random_scenario(std::uint64_t seed, double ccr, double load,
                         int clouds) {
  RandomInstanceConfig cfg;
  cfg.n = 80;
  cfg.cloud_count = clouds;
  cfg.slow_edges = 3;
  cfg.fast_edges = 3;
  cfg.ccr = ccr;
  cfg.load = load;
  Rng rng(seed);
  return make_random_instance(cfg, rng);
}

Instance kang_scenario(std::uint64_t seed) {
  KangInstanceConfig cfg;
  cfg.n = 60;
  cfg.edge_count = 6;
  cfg.cloud_count = 3;
  cfg.load = 0.2;
  Rng rng(seed);
  return make_kang_instance(cfg, rng);
}

std::vector<Scenario> scenarios() {
  return {
      {"compute_intensive",
       [](std::uint64_t s) { return random_scenario(s, 0.1, 0.1, 4); }},
      {"balanced",
       [](std::uint64_t s) { return random_scenario(s, 1.0, 0.2, 4); }},
      {"comm_intensive",
       [](std::uint64_t s) { return random_scenario(s, 10.0, 0.1, 4); }},
      {"high_load",
       [](std::uint64_t s) { return random_scenario(s, 1.0, 0.8, 4); }},
      {"scarce_cloud",
       [](std::uint64_t s) { return random_scenario(s, 0.5, 0.3, 1); }},
      {"no_cloud",
       [](std::uint64_t s) { return random_scenario(s, 1.0, 0.2, 0); }},
      {"kang", [](std::uint64_t s) { return kang_scenario(s); }},
      {"hetero_cloud",
       [](std::uint64_t s) {
         Instance instance = random_scenario(s, 1.0, 0.3, 0);
         instance.platform =
             Platform(instance.platform.edge_speeds(),
                      std::vector<double>{0.5, 1.0, 2.0, 4.0});
         return instance;
       }},
      {"with_outages",
       [](std::uint64_t s) {
         Instance instance = random_scenario(s, 0.5, 0.3, 4);
         OutageConfig cfg;
         cfg.fraction = 0.3;
         cfg.mean_duration = 30.0;
         cfg.horizon = 5000.0;
         Rng rng(derive_seed(s, hash_tag("outages")));
         instance.cloud_outages = make_cloud_outages(4, cfg, rng);
         return instance;
       }},
  };
}

using PropertyParam = std::tuple<std::string, int, std::uint64_t>;
// (policy name, scenario index, seed)

class PolicyProperties : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(PolicyProperties, ModelInvariantsHold) {
  const auto& [policy_name, scenario_index, seed] = GetParam();
  const Scenario scenario = scenarios().at(scenario_index);
  const Instance instance = scenario.make(seed);

  const auto policy = make_policy(policy_name);
  const SimResult result = simulate(instance, *policy);

  // 1. The independent validator accepts the schedule.
  const auto violations = validate_schedule(instance, result.schedule);
  ASSERT_TRUE(violations.empty())
      << "first violation: "
      << (violations.empty() ? "" : to_string(violations.front()));

  // 2. Per-job invariants.
  const ScheduleMetrics metrics = compute_metrics(instance, result.schedule);
  for (const JobMetrics& jm : metrics.per_job) {
    const Job& job = instance.jobs[jm.id];
    EXPECT_GE(jm.completion, job.release - 1e-9);
    EXPECT_GE(jm.stretch, 1.0 - 1e-6)
        << "job " << jm.id << " finished faster than a dedicated platform";
    EXPECT_NEAR(result.completions[jm.id], jm.completion, 1e-6);
  }
  EXPECT_GE(metrics.max_stretch, 1.0 - 1e-6);
  EXPECT_LE(metrics.mean_stretch, metrics.max_stretch + 1e-9);

  // 3. Determinism: a second run is bit-identical.
  const auto policy2 = make_policy(policy_name);
  const SimResult result2 = simulate(instance, *policy2);
  ASSERT_EQ(result2.completions.size(), result.completions.size());
  for (std::size_t i = 0; i < result.completions.size(); ++i) {
    EXPECT_EQ(result.completions[i], result2.completions[i]) << "job " << i;
  }
}

std::vector<PropertyParam> property_grid() {
  std::vector<PropertyParam> params;
  const int scenario_count = static_cast<int>(scenarios().size());
  for (const char* policy :
       {"edge-only", "greedy", "srpt", "ssf-edf", "fcfs"}) {
    for (int scenario = 0; scenario < scenario_count; ++scenario) {
      for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        params.emplace_back(policy, scenario, seed);
      }
    }
  }
  return params;
}

std::string param_name(
    const ::testing::TestParamInfo<PropertyParam>& info) {
  const auto& [policy, scenario_index, seed] = info.param;
  std::string name = policy + "_" + scenarios().at(scenario_index).name +
                     "_s" + std::to_string(seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperties,
                         ::testing::ValuesIn(property_grid()), param_name);

// Cross-policy sanity: on compute-intensive instances (cheap cloud),
// cloud-using heuristics must beat Edge-Only by a wide margin on average.
TEST(CrossPolicy, CloudHelpsWhenCommunicationIsCheap) {
  double edge_only_total = 0.0;
  double ssf_total = 0.0;
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const Instance instance = random_scenario(seed, 0.1, 0.2, 4);
    const auto edge_only = make_policy("edge-only");
    const auto ssf = make_policy("ssf-edf");
    edge_only_total +=
        compute_metrics(instance, simulate(instance, *edge_only).schedule)
            .max_stretch;
    ssf_total +=
        compute_metrics(instance, simulate(instance, *ssf).schedule)
            .max_stretch;
  }
  EXPECT_LT(ssf_total * 2.0, edge_only_total)
      << "SSF-EDF should beat Edge-Only by >2x at CCR 0.1";
}

// With no cloud processors every policy degenerates to edge scheduling and
// all jobs are allocated to their origin edge.
TEST(CrossPolicy, NoCloudMeansAllEdgeAllocations) {
  const Instance instance = random_scenario(5, 1.0, 0.2, 0);
  for (const std::string& name : policy_names()) {
    const auto policy = make_policy(name);
    const SimResult result = simulate(instance, *policy);
    for (int i = 0; i < instance.job_count(); ++i) {
      EXPECT_EQ(result.schedule.job(i).final_run.alloc, kAllocEdge)
          << name << " job " << i;
    }
  }
}

// The factory resolves every advertised name and rejects junk.
TEST(Factory, ResolvesAllNames) {
  for (const std::string& name : policy_names()) {
    EXPECT_NE(make_policy(name), nullptr);
  }
  EXPECT_NE(make_policy("SSF_EDF"), nullptr);  // case/underscore tolerant
  EXPECT_NE(make_policy("srpt-noreexec"), nullptr);
  EXPECT_THROW((void)make_policy("quantum-annealer"), std::invalid_argument);
}

}  // namespace
}  // namespace ecs
