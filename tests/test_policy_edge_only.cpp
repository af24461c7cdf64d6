// Tests for the Edge-Only baseline (sched/edge_only.hpp, paper section V-A).
#include "sched/edge_only.hpp"

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "sched/offline/single_machine.hpp"
#include "sched/ssf_edf.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

TEST(EdgeOnly, NeverUsesCloud) {
  Instance instance;
  instance.platform = Platform({0.1}, 4);  // cloud would be much faster
  instance.jobs = {{0, 0, 5.0, 0.0, 0.1, 0.1}, {1, 0, 3.0, 1.0, 0.1, 0.1}};
  EdgeOnlyPolicy policy;
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(result.schedule.job(i).final_run.alloc, kAllocEdge);
  }
}

TEST(EdgeOnly, StretchDenominatorAccountsForCloud) {
  // The job runs on the edge (10 time units), but its best time is the
  // cloud's 3 units, so even an undisturbed run has stretch 10/3.
  Instance instance;
  instance.platform = Platform({0.1}, 1);
  instance.jobs = {{0, 0, 1.0, 0.0, 1.0, 1.0}};
  EdgeOnlyPolicy policy;
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  const ScheduleMetrics m = compute_metrics(instance, result.schedule);
  EXPECT_NEAR(m.max_stretch, 10.0 / 3.0, 1e-6);
}

TEST(EdgeOnly, EdgesAreIndependent) {
  // Jobs on different edges never interact: two identical job sets on two
  // edges complete identically.
  Instance instance;
  instance.platform = Platform({0.5, 0.5}, 0);
  instance.jobs = {{0, 0, 2.0, 0.0, 0.0, 0.0},
                   {1, 1, 2.0, 0.0, 0.0, 0.0},
                   {2, 0, 1.0, 0.5, 0.0, 0.0},
                   {3, 1, 1.0, 0.5, 0.0, 0.0}};
  EdgeOnlyPolicy policy;
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  EXPECT_NEAR(result.completions[0], result.completions[1], 1e-9);
  EXPECT_NEAR(result.completions[2], result.completions[3], 1e-9);
}

TEST(EdgeOnly, MatchesSingleMachineOfflineOptimumWhenOffline) {
  // All jobs released at 0 on one edge: the online algorithm sees the
  // whole instance at its first event, so it should achieve the offline
  // optimum computed by the Bender binary search (same denominators).
  Instance instance;
  instance.platform = Platform({1.0}, 0);
  instance.jobs = {{0, 0, 3.0, 0.0, 0.0, 0.0},
                   {1, 0, 1.0, 0.0, 0.0, 0.0},
                   {2, 0, 2.0, 0.0, 0.0, 0.0}};
  EdgeOnlyPolicy policy;
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  const ScheduleMetrics m = compute_metrics(instance, result.schedule);

  std::vector<SmJob> jobs;
  for (const Job& job : instance.jobs) {
    jobs.push_back(SmJob{job.work, 0.0, job.work});
  }
  const SingleMachineResult offline =
      optimal_max_stretch_single_machine(jobs);
  EXPECT_NEAR(m.max_stretch, offline.max_stretch, 1e-3);
}

TEST(EdgeOnly, OnlineNeverBeatsOfflineOptimum) {
  // Property over random single-edge instances with release dates: the
  // online Edge-Only stretch is >= the offline optimum for that edge.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    Instance instance;
    instance.platform = Platform({1.0}, 0);
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < n; ++i) {
      instance.jobs.push_back(Job{i, 0, rng.uniform(0.5, 5.0),
                                  rng.uniform(0.0, 10.0), 0.0, 0.0});
    }
    EdgeOnlyPolicy policy;
    const SimResult result = simulate(instance, policy);
    require_valid_schedule(instance, result.schedule);
    const ScheduleMetrics m = compute_metrics(instance, result.schedule);

    std::vector<SmJob> jobs;
    for (const Job& job : instance.jobs) {
      jobs.push_back(SmJob{job.work, job.release, job.work});
    }
    const SingleMachineResult offline =
        optimal_max_stretch_single_machine(jobs);
    EXPECT_GE(m.max_stretch, offline.max_stretch - 1e-3)
        << "seed " << seed;
  }
}

// Oracle equality, not just a bound: on one edge with no cloud and every
// job released at 0, EDF on the deadlines S * p_i runs the jobs shortest
// first whatever S is, which is the offline optimum. Edge-Only and SSF-EDF
// must reach the single-machine optimum itself, at any spread Delta of the
// job sizes. The offline search runs to 1e-9 so that its own precision
// stays well inside the 1e-6 tolerance (both policies read within 1e-9).
TEST(EdgeOnly, EqualsSingleMachineOptimumWhenAllReleasedAtZero) {
  for (const int n : {40, 200}) {
    for (const double delta : {2.0, 8.0, 64.0}) {
      for (const std::uint64_t seed : {1U, 2U, 3U}) {
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(delta) + n);
        Instance instance;
        instance.platform = Platform({1.0}, 0);
        std::vector<SmJob> jobs;
        for (int i = 0; i < n; ++i) {
          const double work = rng.uniform(1.0, delta);
          instance.jobs.push_back(Job{i, 0, work, 0.0, 0.0, 0.0});
          jobs.push_back(SmJob{work, 0.0, work});
        }
        const double optimum =
            optimal_max_stretch_single_machine(jobs, 1e-9).max_stretch;
        EdgeOnlyPolicy edge_only;
        SsfEdfPolicy ssf_edf;
        for (Policy* policy : {static_cast<Policy*>(&edge_only),
                               static_cast<Policy*>(&ssf_edf)}) {
          const SimResult result = simulate(instance, *policy);
          require_valid_schedule(instance, result.schedule);
          const double online =
              compute_metrics(instance, result.schedule).max_stretch;
          EXPECT_NEAR(online / optimum, 1.0, 1e-6)
              << policy->name() << ", n " << n << ", Delta " << delta
              << ", seed " << seed;
        }
      }
    }
  }
}

TEST(EdgeOnly, PreemptsForUrgentShortJob) {
  // A long job occupies the edge; a short job arrives: its deadline is
  // tighter, EDF preempts.
  Instance instance;
  instance.platform = Platform({1.0}, 0);
  instance.jobs = {{0, 0, 10.0, 0.0, 0.0, 0.0}, {1, 0, 1.0, 2.0, 0.0, 0.0}};
  EdgeOnlyPolicy policy;
  const SimResult result = simulate(instance, policy);
  require_valid_schedule(instance, result.schedule);
  // Short job should complete well before the long one finishes.
  EXPECT_LT(result.completions[1], 5.0);
  EXPECT_NEAR(result.completions[0], 11.0, 1e-6);
}

}  // namespace
}  // namespace ecs
