// Tests for completion-time projection (sim/projection.hpp).
#include "sim/projection.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ecs {
namespace {

Platform small_platform() { return Platform({0.5}, 2); }

JobState fresh_state(const Platform& platform, Job job) {
  JobState s;
  s.job = job;
  s.best_time = platform.best_time(job);
  s.released = true;
  return s;
}

TEST(Projection, RemainingOnFreshTargets) {
  const Platform platform = small_platform();
  JobState s = fresh_state(platform, {0, 0, 4.0, 0.0, 1.0, 2.0});
  const RemainingAmounts edge = remaining_on(s, kAllocEdge);
  EXPECT_DOUBLE_EQ(edge.work, 4.0);
  EXPECT_DOUBLE_EQ(edge.up, 0.0);
  EXPECT_DOUBLE_EQ(edge.down, 0.0);
  const RemainingAmounts cloud = remaining_on(s, 0);
  EXPECT_DOUBLE_EQ(cloud.up, 1.0);
  EXPECT_DOUBLE_EQ(cloud.work, 4.0);
  EXPECT_DOUBLE_EQ(cloud.down, 2.0);
}

TEST(Projection, RemainingOnCurrentAllocationKeepsProgress) {
  const Platform platform = small_platform();
  JobState s = fresh_state(platform, {0, 0, 4.0, 0.0, 1.0, 2.0});
  s.alloc = 0;
  s.rem_up = 0.0;    // uploaded
  s.rem_work = 1.5;  // partially computed
  s.rem_down = 2.0;
  const RemainingAmounts keep = remaining_on(s, 0);
  EXPECT_DOUBLE_EQ(keep.up, 0.0);
  EXPECT_DOUBLE_EQ(keep.work, 1.5);
  // Moving to the other cloud resends everything.
  const RemainingAmounts move = remaining_on(s, 1);
  EXPECT_DOUBLE_EQ(move.up, 1.0);
  EXPECT_DOUBLE_EQ(move.work, 4.0);
}

TEST(Projection, UncontendedCompletionEdgeAndCloud) {
  const Platform platform = small_platform();
  const JobState s = fresh_state(platform, {0, 0, 4.0, 0.0, 1.0, 2.0});
  // Edge: 4 / 0.5 = 8; cloud: 1 + 4 + 2 = 7; at now = 10.
  EXPECT_DOUBLE_EQ(uncontended_completion(platform, s, kAllocEdge, 10.0),
                   18.0);
  EXPECT_DOUBLE_EQ(uncontended_completion(platform, s, 0, 10.0), 17.0);
  EXPECT_DOUBLE_EQ(best_uncontended_completion(platform, s, 10.0), 17.0);
}

TEST(Projection, BestUncontendedUsesProgressOnCurrentCloud) {
  const Platform platform = small_platform();
  JobState s = fresh_state(platform, {0, 0, 4.0, 0.0, 1.0, 2.0});
  s.alloc = 1;
  s.rem_up = 0.0;
  s.rem_work = 0.5;
  s.rem_down = 2.0;
  // Continuing on cloud 1: 2.5 < fresh cloud 7 < edge 8.
  EXPECT_DOUBLE_EQ(best_uncontended_completion(platform, s, 0.0), 2.5);
}

TEST(Projection, ResourceClockEdgeQueueing) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const JobState a = fresh_state(platform, {0, 0, 2.0, 0.0, 10.0, 10.0});
  const JobState b = fresh_state(platform, {1, 0, 1.0, 0.0, 10.0, 10.0});
  EXPECT_DOUBLE_EQ(clock.commit(platform, a, kAllocEdge), 4.0);
  // Second job queues behind the first on the same edge CPU.
  EXPECT_DOUBLE_EQ(clock.commit(platform, b, kAllocEdge), 6.0);
}

TEST(Projection, ResourceClockCloudPipeline) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const JobState a = fresh_state(platform, {0, 0, 2.0, 0.0, 1.0, 1.0});
  const JobState b = fresh_state(platform, {1, 0, 2.0, 0.0, 1.0, 1.0});
  // a on cloud 0: up [0,1), exec [1,3), down [3,4).
  EXPECT_DOUBLE_EQ(clock.commit(platform, a, 0), 4.0);
  // b on cloud 1: its uplink waits for the shared edge send port:
  // up [1,2), exec [2,4), down: edge receive port is free until a's
  // downlink [3,4)... b's downlink starts at max(4, 0, 4) = 4 -> 5.
  EXPECT_DOUBLE_EQ(clock.commit(platform, b, 1), 5.0);
}

TEST(Projection, ResourceClockSameCloudSerializesCompute) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const JobState a = fresh_state(platform, {0, 0, 3.0, 0.0, 0.0, 0.0});
  const JobState b = fresh_state(platform, {1, 0, 3.0, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(clock.commit(platform, a, 0), 3.0);
  EXPECT_DOUBLE_EQ(clock.commit(platform, b, 0), 6.0);
  // The other cloud is still free.
  EXPECT_DOUBLE_EQ(clock.project(platform, b, 1), 3.0);
}

TEST(Projection, BestTargetPrefersFasterOption) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const JobState s = fresh_state(platform, {0, 0, 4.0, 0.0, 1.0, 1.0});
  const auto [target, done] =
      clock.best_target_sticky(platform, fields_of(s));
  // Cloud: 6 < edge: 8.
  EXPECT_EQ(target, 0);
  EXPECT_DOUBLE_EQ(done, 6.0);
}

TEST(Projection, BestTargetFallsBackToEdgeWhenCloudsBusy) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const JobState blocker = fresh_state(platform, {0, 0, 50.0, 0.0, 0.0, 0.0});
  (void)clock.commit(platform, blocker, 0);
  (void)clock.commit(platform, blocker, 1);
  const JobState s = fresh_state(platform, {1, 0, 4.0, 0.0, 1.0, 1.0});
  const auto [target, done] =
      clock.best_target_sticky(platform, fields_of(s));
  EXPECT_EQ(target, kAllocEdge);
  EXPECT_DOUBLE_EQ(done, 8.0);
}

TEST(Projection, ZeroDownlinkSkipsReceivePort) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const JobState s = fresh_state(platform, {0, 0, 2.0, 0.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(clock.commit(platform, s, 0), 3.0);  // up 1 + work 2
}

TEST(Projection, UploadedJobIgnoresOtherUplinksOnSharedPorts) {
  // Regression: a job whose uplink is already complete must not inherit
  // delays from other jobs' committed uplinks on the same send/receive
  // ports — only the cloud CPU matters for its remaining execution.
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const JobState other = fresh_state(platform, {1, 0, 1.0, 0.0, 100.0, 0.0});
  (void)clock.commit(platform, other, 1);  // send port busy until t=100
  JobState uploaded = fresh_state(platform, {0, 0, 5.0, 0.0, 2.0, 0.0});
  uploaded.alloc = 0;
  uploaded.rem_up = 0.0;
  uploaded.rem_work = 5.0;
  uploaded.rem_down = 0.0;
  // Cloud 0's CPU is free: the projection must be 5, not 100 + 5.
  EXPECT_DOUBLE_EQ(clock.project(platform, uploaded, 0), 5.0);
}

TEST(Projection, ProjectDoesNotMutateClock) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const JobState s = fresh_state(platform, {0, 0, 2.0, 0.0, 1.0, 1.0});
  const Time first = clock.project(platform, s, 0);
  const Time second = clock.project(platform, s, 0);
  EXPECT_DOUBLE_EQ(first, second);
}

/// The oracle for best_target_sticky's kernel: one
/// ResourceClock::project() call per target, the current allocation first,
/// then the edge, then every other cloud in index order.
std::pair<int, Time> best_target_per_target(const Platform& platform,
                                            const ResourceClock& clock,
                                            const JobFields& f) {
  int best_target = kAllocEdge;
  Time best = kTimeInfinity;
  const auto consider = [&](int target) {
    const Time done = clock.project(platform, f, target);
    if (done < best - kDecisionMargin) {
      best = done;
      best_target = target;
    }
  };
  if (f.alloc != kAllocUnassigned) {
    best_target = f.alloc;
    best = clock.project(platform, f, f.alloc);
    if (f.alloc != kAllocEdge) consider(kAllocEdge);
  } else {
    consider(kAllocEdge);
  }
  for (CloudId k = 0; k < platform.cloud_count(); ++k) {
    if (k == f.alloc) continue;
    consider(k);
  }
  return {best_target, best};
}

/// A random job state: unassigned, on its edge with partial work done, or
/// on a cloud in any of its three phases; a quarter of the jobs have a
/// zero-length uplink and a quarter a zero-length downlink.
JobFields random_fields(const Platform& platform, Rng& rng, Job& job) {
  job.origin = static_cast<EdgeId>(
      rng.uniform_int(0, platform.edge_count() - 1));
  job.work = rng.uniform(0.5, 6.0);
  job.up = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.1, 3.0);
  job.down = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.1, 3.0);
  JobFields f;
  f.job = &job;
  f.best_time = platform.best_time(job);
  f.alloc = static_cast<int>(
      rng.uniform_int(kAllocUnassigned, platform.cloud_count() - 1));
  f.rem_up = job.up;
  f.rem_work = job.work;
  f.rem_down = job.down;
  if (f.alloc == kAllocEdge) {
    f.rem_work = job.work * rng.uniform(0.0, 1.0);
  } else if (is_cloud_alloc(f.alloc)) {
    switch (rng.uniform_int(0, 2)) {
      case 0:  // uploading
        f.rem_up = job.up * rng.uniform(0.0, 1.0);
        break;
      case 1:  // computing
        f.rem_up = 0.0;
        f.rem_work = job.work * rng.uniform(0.0, 1.0);
        break;
      default:  // downloading
        f.rem_up = 0.0;
        f.rem_work = 0.0;
        f.rem_down = job.down * rng.uniform(0.0, 1.0);
        break;
    }
  }
  return f;
}

/// Cloud speeds of the platforms the best-target checks run on: none (the
/// kernel must not touch a cloud lane), one, a few uniform, a few mixed,
/// and a wide platform of each kind.
std::vector<std::vector<double>> cloud_speed_sets() {
  std::vector<double> wide_mixed(100);
  for (std::size_t k = 0; k < wide_mixed.size(); ++k) {
    wide_mixed[k] = 0.5 + 0.25 * static_cast<double>(k % 7);
  }
  return {{},
          {1.0},
          std::vector<double>(5, 1.0),
          {0.5, 1.0, 1.0, 2.0, 1.0},
          std::vector<double>(100, 1.0),
          wide_mixed};
}

Instance make_projection_instance(const std::vector<double>& cloud_speeds,
                                  bool outages, Rng& rng) {
  Instance instance;
  instance.platform = Platform({0.1, 0.5, 1.0}, cloud_speeds);
  if (outages) {
    for (int k = 0; k < instance.platform.cloud_count(); ++k) {
      IntervalSet windows;
      for (int w = 0; w < 4; ++w) {
        const Time begin = rng.uniform(0.0, 40.0);
        windows.add(begin, begin + rng.uniform(0.5, 4.0));
      }
      instance.cloud_outages.push_back(windows);
    }
  }
  return instance;
}

TEST(Projection, FusedBestTargetMatchesPerTargetLoop) {
  const std::vector<std::vector<double>> speed_sets = cloud_speed_sets();
  for (std::size_t set = 0; set < speed_sets.size(); ++set) {
    for (const bool outages : {false, true}) {
      SCOPED_TRACE(std::to_string(speed_sets[set].size()) + " clouds, set " +
                   std::to_string(set) + (outages ? " +outages" : ""));
      Rng rng(set * 2 + outages + 17);
      const Instance instance =
          make_projection_instance(speed_sets[set], outages, rng);
      const Platform& platform = instance.platform;
      ResourceClock clock(instance, 0.0);
      for (int pass = 0; pass < 40; ++pass) {
        clock.reset(rng.uniform(0.0, 30.0));
        const int commits = static_cast<int>(rng.uniform_int(0, 12));
        for (int i = 0; i <= commits; ++i) {
          Job job;
          const JobFields f = random_fields(platform, rng, job);
          const auto got = clock.best_target_sticky(platform, f);
          const auto want = best_target_per_target(platform, clock, f);
          ASSERT_EQ(got.first, want.first) << "pass " << pass << " job " << i;
          ASSERT_EQ(got.second, want.second) << "pass " << pass << " job " << i;
          // Commit to a random target half the time, so the passes reach
          // clock states the best-target policy alone would not.
          const int target =
              rng.bernoulli(0.5)
                  ? got.first
                  : static_cast<int>(rng.uniform_int(
                        kAllocEdge, platform.cloud_count() - 1));
          (void)clock.commit(platform, f, target);
        }
      }
    }
  }
}

// reset() must leave no trace of earlier passes: one clock reset and
// reused across many random commit passes answers every query exactly as
// a clock constructed fresh for that pass does.
TEST(Projection, ResetClockMatchesFreshlyConstructedClock) {
  const std::vector<std::vector<double>> speed_sets = cloud_speed_sets();
  for (std::size_t set = 0; set < speed_sets.size(); ++set) {
    for (const bool outages : {false, true}) {
      SCOPED_TRACE(std::to_string(speed_sets[set].size()) + " clouds, set " +
                   std::to_string(set) + (outages ? " +outages" : ""));
      Rng rng(set * 2 + outages + 91);
      const Instance instance =
          make_projection_instance(speed_sets[set], outages, rng);
      const Platform& platform = instance.platform;
      ResourceClock reused(instance, 0.0);
      for (int pass = 0; pass < 60; ++pass) {
        const Time now = rng.uniform(0.0, 30.0);
        reused.reset(now);
        ResourceClock fresh(instance, now);
        const int commits = static_cast<int>(rng.uniform_int(0, 20));
        for (int i = 0; i <= commits; ++i) {
          Job job;
          const JobFields f = random_fields(platform, rng, job);
          const auto got = reused.best_target_sticky(platform, f);
          const auto want = fresh.best_target_sticky(platform, f);
          ASSERT_EQ(got, want) << "pass " << pass << " job " << i;
          for (int target = kAllocEdge; target < platform.cloud_count();
               ++target) {
            ASSERT_EQ(reused.project(platform, f, target),
                      fresh.project(platform, f, target))
                << "pass " << pass << " job " << i << " target " << target;
            ASSERT_EQ(reused.starts_now(platform, f, target, now),
                      fresh.starts_now(platform, f, target, now))
                << "pass " << pass << " job " << i << " target " << target;
          }
          const int target =
              rng.bernoulli(0.5)
                  ? got.first
                  : static_cast<int>(rng.uniform_int(
                        kAllocEdge, platform.cloud_count() - 1));
          ASSERT_EQ(reused.commit(platform, f, target),
                    fresh.commit(platform, f, target));
        }
      }
    }
  }
}

}  // namespace
}  // namespace ecs
