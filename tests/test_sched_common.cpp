// Tests for the shared policy helpers (sched/common.hpp): sticky target
// selection (ResourceClock::best_target_sticky, which the list assignment
// uses) and the immediate-start list assignment.
#include "sched/common.hpp"

#include <gtest/gtest.h>

#include "pool_view.hpp"
#include "sim/engine.hpp"

namespace ecs {
namespace {

/// An unassigned job's fields; `job` must outlive them.
JobFields unassigned(const Platform& platform, const Job& job) {
  return JobFields{&job, platform.best_time(job)};
}

TEST(BestTargetSticky, PicksStrictlyBetterTarget) {
  const Platform platform({0.25}, 1);
  ResourceClock clock(platform, 0.0);
  const Job job{0, 0, 2.0, 0.0, 0.5, 0.5};
  // Cloud 3 < edge 8.
  const auto [target, done] =
      clock.best_target_sticky(platform, unassigned(platform, job));
  EXPECT_EQ(target, 0);
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(BestTargetSticky, KeepsCurrentAllocationOnTies) {
  // Two identical clouds: a job already allocated to cloud 1 must stay
  // there rather than hopping to the equivalent cloud 0.
  const Platform platform({0.25}, 2);
  ResourceClock clock(platform, 0.0);
  const Job job{0, 0, 2.0, 0.0, 0.5, 0.5};
  JobFields f = unassigned(platform, job);
  f.alloc = 1;
  f.rem_up = 0.5;
  f.rem_work = 2.0;
  f.rem_down = 0.5;
  const auto [target, done] = clock.best_target_sticky(platform, f);
  EXPECT_EQ(target, 1);
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(BestTargetSticky, ProgressMakesCurrentAllocationWin) {
  // Continuing (remaining work 0.5) beats even an idle fresh cloud.
  const Platform platform({0.25}, 2);
  ResourceClock clock(platform, 0.0);
  const Job job{0, 0, 2.0, 0.0, 0.5, 0.5};
  JobFields f = unassigned(platform, job);
  f.alloc = 0;
  f.rem_up = 0.0;
  f.rem_work = 0.5;
  f.rem_down = 0.5;
  const auto [target, done] = clock.best_target_sticky(platform, f);
  EXPECT_EQ(target, 0);
  EXPECT_DOUBLE_EQ(done, 1.0);
}

TEST(BestTargetSticky, LeavesCurrentWhenGenuinelyBetterElsewhere) {
  // The job sits unstarted on a cloud whose CPU is booked far into the
  // future; the edge is strictly better.
  const Platform platform({1.0}, 1);
  ResourceClock clock(platform, 0.0);
  const Job blocker{1, 0, 50.0, 0.0, 0.0, 0.0};
  (void)clock.commit(platform, unassigned(platform, blocker), 0);
  const Job job{0, 0, 2.0, 0.0, 0.1, 0.1};
  JobFields f = unassigned(platform, job);
  f.alloc = 0;
  f.rem_up = 0.1;
  f.rem_work = 2.0;
  f.rem_down = 0.1;
  const auto [target, done] = clock.best_target_sticky(platform, f);
  EXPECT_EQ(target, kAllocEdge);
  EXPECT_DOUBLE_EQ(done, 2.0);
}

TEST(ContainsRelease, DetectsReleaseKind) {
  EXPECT_FALSE(contains_release({}));
  EXPECT_FALSE(contains_release({{EventKind::kComputeDone, 0, 1.0}}));
  EXPECT_TRUE(contains_release({{EventKind::kComputeDone, 0, 1.0},
                                {EventKind::kRelease, 1, 1.0}}));
}

TEST(ListAssign, OnlyImmediateStartersGetExplicitTargets) {
  // Three jobs from one edge, one cloud. In key order: J0 takes the cloud
  // (uplink starts now). J1's cloud route queues behind J0 on both the
  // send port and the cloud CPU (done at 5.5), so its best target is the
  // free edge (done at 4.0) — an immediate start, explicit directive.
  // J2 then finds the edge claimed and the cloud route queued: it keeps
  // (kTargetKeep) and waits for a later event.
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, 2.0, 0.0, 1.0, 0.5},
                   {1, 0, 2.0, 0.0, 1.0, 0.5},
                   {2, 0, 0.4, 0.0, 5.0, 5.0}};
  const PoolView round(instance);
  const std::vector<Directive> directives = list_assign_directives(
      round.view(), {{0, 1.0}, {1, 2.0}, {2, 3.0}});
  ASSERT_EQ(directives.size(), 3u);
  EXPECT_EQ(directives[0].job, 0);
  EXPECT_EQ(directives[0].target, 0);  // starts uplink now
  EXPECT_EQ(directives[1].job, 1);
  EXPECT_EQ(directives[1].target, kAllocEdge);  // edge 4.0 < queued cloud
  EXPECT_EQ(directives[2].job, 2);
  EXPECT_EQ(directives[2].target, kTargetKeep);  // everything queued
  // Priorities follow the key order.
  EXPECT_LT(directives[0].priority, directives[1].priority);
  EXPECT_LT(directives[1].priority, directives[2].priority);
}

}  // namespace
}  // namespace ecs
