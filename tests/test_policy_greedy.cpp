// Tests for the Greedy heuristic (sched/greedy.hpp, paper section V-B).
#include "sched/greedy.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "pool_view.hpp"
#include "sim/engine.hpp"

namespace ecs {
namespace {

SimResult run_greedy(const Instance& instance) {
  GreedyPolicy policy;
  return simulate(instance, policy);
}

TEST(Greedy, SingleJobPicksBestResource) {
  // Cheap communications: the cloud (1+2+1 = 4) beats the edge (2/0.2 = 10).
  Instance instance;
  instance.platform = Platform({0.2}, 1);
  instance.jobs = {{0, 0, 2.0, 0.0, 1.0, 1.0}};
  const SimResult result = run_greedy(instance);
  require_valid_schedule(instance, result.schedule);
  EXPECT_EQ(result.schedule.job(0).final_run.alloc, 0);
  EXPECT_NEAR(result.completions[0], 4.0, 1e-9);
}

TEST(Greedy, SingleJobStaysLocalWhenCommsCostly) {
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, 2.0, 0.0, 10.0, 10.0}};
  const SimResult result = run_greedy(instance);
  require_valid_schedule(instance, result.schedule);
  EXPECT_EQ(result.schedule.job(0).final_run.alloc, kAllocEdge);
  EXPECT_NEAR(result.completions[0], 4.0, 1e-9);
}

TEST(Greedy, PrioritizesJobWithHighestThreatenedStretch) {
  // Two jobs released together on one edge, no useful cloud. The shorter
  // job would suffer the larger stretch if delayed, so Greedy runs it
  // first (its achievable-stretch is higher as the ratio grows faster).
  Instance instance;
  instance.platform = Platform({1.0}, 0);
  instance.jobs = {{0, 0, 10.0, 0.0, 0.0, 0.0}, {1, 0, 1.0, 0.0, 0.0, 0.0}};
  const SimResult result = run_greedy(instance);
  require_valid_schedule(instance, result.schedule);
  const ScheduleMetrics m = compute_metrics(instance, result.schedule);
  // Short job first: stretches 1 and 1.1; long first would be 11 and 1.
  EXPECT_NEAR(m.max_stretch, 1.1, 1e-6);
}

TEST(Greedy, SpreadsJobsOverCloudProcessors) {
  // Four identical jobs, tiny comms, two clouds + one fast edge: Greedy
  // must use several resources in parallel instead of queueing everything.
  Instance instance;
  instance.platform = Platform({1.0}, 2);
  instance.jobs = {{0, 0, 4.0, 0.0, 0.1, 0.1},
                   {1, 0, 4.0, 0.0, 0.1, 0.1},
                   {2, 0, 4.0, 0.0, 0.1, 0.1}};
  const SimResult result = run_greedy(instance);
  require_valid_schedule(instance, result.schedule);
  int edge_jobs = 0;
  int cloud_jobs = 0;
  for (int i = 0; i < 3; ++i) {
    if (result.schedule.job(i).final_run.alloc == kAllocEdge) {
      ++edge_jobs;
    } else {
      ++cloud_jobs;
    }
  }
  EXPECT_EQ(edge_jobs, 1);
  EXPECT_EQ(cloud_jobs, 2);
}

TEST(Greedy, PreemptsButNeverDiscardsProgressWithoutBenefit) {
  // A long job is computing on the edge with most of its work done when a
  // newcomer arrives whose own best option is that edge (stretch 1.0 vs
  // 1.1 on the cloud). Greedy is myopic: the newcomer preempts. The
  // invariant is that the long job's progress survives the preemption (it
  // resumes on the same edge; no run is ever abandoned) — re-execution
  // only happens when it strictly helps the moved job.
  Instance instance;
  instance.platform = Platform({1.0}, 1);
  instance.jobs = {{0, 0, 10.0, 0.0, 20.0, 20.0},
                   {1, 0, 2.0, 9.0, 0.1, 0.1}};
  const SimResult result = run_greedy(instance);
  require_valid_schedule(instance, result.schedule);
  EXPECT_TRUE(result.schedule.job(0).abandoned.empty());
  EXPECT_TRUE(result.schedule.job(1).abandoned.empty());
  EXPECT_EQ(result.schedule.job(0).final_run.alloc, kAllocEdge);
  // Newcomer runs [9, 11); the preempted job resumes and finishes at 12.
  EXPECT_NEAR(result.completions[1], 11.0, 1e-6);
  EXPECT_NEAR(result.completions[0], 12.0, 1e-6);
}

TEST(Greedy, ValidOnBurstyContention) {
  // Stress: 30 jobs released in one burst from 3 edges onto 2 clouds.
  Instance instance;
  instance.platform = Platform({0.3, 0.3, 0.3}, 2);
  for (int i = 0; i < 30; ++i) {
    instance.jobs.push_back(Job{i, static_cast<EdgeId>(i % 3),
                                1.0 + (i % 7), 0.0, 0.5 + (i % 3) * 0.5,
                                0.5});
  }
  const SimResult result = run_greedy(instance);
  require_valid_schedule(instance, result.schedule);
  const ScheduleMetrics m = compute_metrics(instance, result.schedule);
  EXPECT_GE(m.max_stretch, 1.0);
}

/// One decide() on a hand-built view: every job of `instance` live and
/// unassigned at time `now`.
std::vector<Directive> decide_once(const Instance& instance, Time now) {
  const PoolView round(instance, now);
  GreedyPolicy policy;
  policy.reset(instance);
  std::vector<Directive> out;
  policy.decide(round.view(), {}, out);
  return out;
}

TEST(Greedy, MarginChainFollowsScanOrder) {
  // One unit-speed edge, no cloud: job i's min-stretch at t = 10 is
  // 1 + (10 - release) / work, here 2, 2 - 0.6e-6 and 2 - 1.2e-6, with
  // best_time falling 4, 2, 1. Each job ties with the previous one within
  // kDecisionMargin and has the smaller best_time, so the scan moves to it
  // and picks the third job, although the first has the largest value and
  // the first and third do not tie.
  Instance instance;
  instance.platform = Platform({1.0}, 0);
  instance.jobs = {{0, 0, 4.0, 6.0, 0.0, 0.0},
                   {1, 0, 2.0, 8.0000012, 0.0, 0.0},
                   {2, 0, 1.0, 9.0000012, 0.0, 0.0}};
  const std::vector<Directive> out = decide_once(instance, 10.0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].job, 2);
  EXPECT_EQ(out[0].target, kAllocEdge);
}

}  // namespace
}  // namespace ecs
