// Tests for completion-time projection (sim/projection.hpp).
#include "sim/projection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ecs {
namespace {

Platform small_platform() { return Platform({0.5}, 2); }

/// An unassigned job's fields; `job` must outlive them.
JobFields unassigned(const Platform& platform, const Job& job) {
  return JobFields{&job, platform.best_time(job)};
}

TEST(Projection, RemainingOnFreshTargets) {
  const Platform platform = small_platform();
  const Job job{0, 0, 4.0, 0.0, 1.0, 2.0};
  JobFields s = unassigned(platform, job);
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
  const Job job{0, 0, 4.0, 0.0, 1.0, 2.0};
  JobFields s = unassigned(platform, job);
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
  const Job job{0, 0, 4.0, 0.0, 1.0, 2.0};
  const JobFields s = unassigned(platform, job);
  // Edge: 4 / 0.5 = 8; cloud: 1 + 4 + 2 = 7; at now = 10.
  EXPECT_DOUBLE_EQ(uncontended_completion(platform, s, kAllocEdge, 10.0),
                   18.0);
  EXPECT_DOUBLE_EQ(uncontended_completion(platform, s, 0, 10.0), 17.0);
  EXPECT_DOUBLE_EQ(best_uncontended_completion(platform, s, 10.0), 17.0);
}

TEST(Projection, BestUncontendedUsesProgressOnCurrentCloud) {
  const Platform platform = small_platform();
  const Job job{0, 0, 4.0, 0.0, 1.0, 2.0};
  JobFields s = unassigned(platform, job);
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
  const Job a_job{0, 0, 2.0, 0.0, 10.0, 10.0};
  const JobFields a = unassigned(platform, a_job);
  const Job b_job{1, 0, 1.0, 0.0, 10.0, 10.0};
  const JobFields b = unassigned(platform, b_job);
  EXPECT_DOUBLE_EQ(clock.commit(platform, a, kAllocEdge), 4.0);
  // Second job queues behind the first on the same edge CPU.
  EXPECT_DOUBLE_EQ(clock.commit(platform, b, kAllocEdge), 6.0);
}

TEST(Projection, ResourceClockCloudPipeline) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const Job a_job{0, 0, 2.0, 0.0, 1.0, 1.0};
  const JobFields a = unassigned(platform, a_job);
  const Job b_job{1, 0, 2.0, 0.0, 1.0, 1.0};
  const JobFields b = unassigned(platform, b_job);
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
  const Job a_job{0, 0, 3.0, 0.0, 0.0, 0.0};
  const JobFields a = unassigned(platform, a_job);
  const Job b_job{1, 0, 3.0, 0.0, 0.0, 0.0};
  const JobFields b = unassigned(platform, b_job);
  EXPECT_DOUBLE_EQ(clock.commit(platform, a, 0), 3.0);
  EXPECT_DOUBLE_EQ(clock.commit(platform, b, 0), 6.0);
  // The other cloud is still free.
  EXPECT_DOUBLE_EQ(clock.project(platform, b, 1), 3.0);
}

TEST(Projection, BestTargetPrefersFasterOption) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const Job job{0, 0, 4.0, 0.0, 1.0, 1.0};
  const JobFields s = unassigned(platform, job);
  const auto [target, done] = clock.best_target_sticky(platform, s);
  // Cloud: 6 < edge: 8.
  EXPECT_EQ(target, 0);
  EXPECT_DOUBLE_EQ(done, 6.0);
}

TEST(Projection, BestTargetFallsBackToEdgeWhenCloudsBusy) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const Job blocker_job{0, 0, 50.0, 0.0, 0.0, 0.0};
  const JobFields blocker = unassigned(platform, blocker_job);
  (void)clock.commit(platform, blocker, 0);
  (void)clock.commit(platform, blocker, 1);
  const Job job{1, 0, 4.0, 0.0, 1.0, 1.0};
  const JobFields s = unassigned(platform, job);
  const auto [target, done] = clock.best_target_sticky(platform, s);
  EXPECT_EQ(target, kAllocEdge);
  EXPECT_DOUBLE_EQ(done, 8.0);
}

TEST(Projection, ZeroDownlinkSkipsReceivePort) {
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const Job job{0, 0, 2.0, 0.0, 1.0, 0.0};
  const JobFields s = unassigned(platform, job);
  EXPECT_DOUBLE_EQ(clock.commit(platform, s, 0), 3.0);  // up 1 + work 2
}

TEST(Projection, UploadedJobIgnoresOtherUplinksOnSharedPorts) {
  // Regression: a job whose uplink is already complete must not inherit
  // delays from other jobs' committed uplinks on the same send/receive
  // ports — only the cloud CPU matters for its remaining execution.
  const Platform platform = small_platform();
  ResourceClock clock(platform, 0.0);
  const Job other_job{1, 0, 1.0, 0.0, 100.0, 0.0};
  const JobFields other = unassigned(platform, other_job);
  (void)clock.commit(platform, other, 1);  // send port busy until t=100
  const Job uploaded_job{0, 0, 5.0, 0.0, 2.0, 0.0};
  JobFields uploaded = unassigned(platform, uploaded_job);
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
  const Job job{0, 0, 2.0, 0.0, 1.0, 1.0};
  const JobFields s = unassigned(platform, job);
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

// ------------------------------------------------ the fresh-cloud floor
//
// Without outages, best_target_sticky skips the cloud scan when a floor
// under every cloud's fresh-restart completion cannot beat the keep/edge
// candidate. These cases sit on each side of that test; every one must
// agree with the per-target oracle, and place() with
// best_target_sticky + starts_now + commit.

/// Checks best_target_sticky on `clock` against `want` and the oracle, and
/// place() against starts_now + commit, each on a copy of `clock`.
void expect_choice(const Platform& platform, const ResourceClock& clock,
                   const JobFields& f, std::pair<int, Time> want) {
  ResourceClock split = clock;
  ResourceClock fused = clock;
  const auto got = split.best_target_sticky(platform, f);
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.second, want.second);
  EXPECT_EQ(got, best_target_per_target(platform, clock, f));
  const Time now = 0.0;
  const bool immediate = split.starts_now(platform, f, got.first, now);
  EXPECT_EQ(split.commit(platform, f, got.first), got.second);
  bool placed_immediate = !immediate;
  EXPECT_EQ(fused.place(platform, f, now, &placed_immediate), got);
  EXPECT_EQ(placed_immediate, immediate);
  EXPECT_TRUE(fused == split);
}

/// One edge of speed 1 and clouds of speeds 1 and 2: cloud 1 is the
/// fastest, and a job of work 4 takes 4 on the edge and 2 on cloud 1.
Platform floor_platform() {
  return Platform({1.0}, std::vector<double>{1.0, 2.0});
}

TEST(ProjectionFloor, FloorEqualToThresholdKeepsTheEdge) {
  const Platform platform = floor_platform();
  const ResourceClock clock(platform, 0.0);
  // The edge finishes at 4, so a cloud must finish before 4 - margin. With
  // uplink 4 - margin - 2 (exact: both operands lie in [2, 4]), cloud 1
  // and the floor both finish exactly there, which is not better.
  const Time threshold = 4.0 - kDecisionMargin;
  const Job job{0, 0, 4.0, 0.0, threshold - 2.0, 0.0};
  ASSERT_EQ(job.up + 2.0, threshold);
  expect_choice(platform, clock, unassigned(platform, job), {kAllocEdge, 4.0});
}

TEST(ProjectionFloor, FloorOneUlpBelowThresholdPicksTheCloud) {
  const Platform platform = floor_platform();
  const ResourceClock clock(platform, 0.0);
  const Time threshold = 4.0 - kDecisionMargin;
  const Time below = std::nextafter(threshold, 0.0);
  const Job job{0, 0, 4.0, 0.0, below - 2.0, 0.0};
  ASSERT_EQ(job.up + 2.0, below);
  expect_choice(platform, clock, unassigned(platform, job), {1, below});
}

TEST(ProjectionFloor, FloorBelowThresholdWithTheFastestCloudBusy) {
  // Mixed speeds: the floor assumes the fastest cloud is free, so it lies
  // below the edge's 4; the scan then finds cloud 1 busy until 10 and
  // cloud 0 at 1 + 4, and the edge keeps the job.
  const Platform platform = floor_platform();
  ResourceClock clock(platform, 0.0);
  const Job blocker{1, 0, 20.0, 0.0, 0.0, 0.0};
  (void)clock.commit(platform, unassigned(platform, blocker), 1);
  const Job job{0, 0, 4.0, 0.0, 1.0, 0.0};
  expect_choice(platform, clock, unassigned(platform, job), {kAllocEdge, 4.0});
}

TEST(ProjectionFloor, ZeroLegJobsIgnoreBusyEdgePorts) {
  // Other jobs hold the edge's send port until 10 and its receive port
  // until 14. A job with no uplink and no downlink uses neither, so cloud
  // 1 still completes it at 0 + 4 / 2; a floor that charged either port
  // would wrongly skip the scan and leave it on the edge.
  const Platform platform = floor_platform();
  ResourceClock clock(platform, 0.0);
  const Job sender{1, 0, 1.0, 0.0, 10.0, 0.0};
  (void)clock.commit(platform, unassigned(platform, sender), 0);
  const Job receiver{2, 0, 1.0, 0.0, 0.0, 2.0};
  (void)clock.commit(platform, unassigned(platform, receiver), 0);
  const Job job{0, 0, 4.0, 0.0, 0.0, 0.0};
  expect_choice(platform, clock, unassigned(platform, job), {1, 2.0});
  // With a downlink of 1 the job waits for the receive port: 14 + 1 on
  // either cloud.
  const Job down_job{3, 0, 4.0, 0.0, 0.0, 1.0};
  expect_choice(platform, clock, unassigned(platform, down_job),
                {kAllocEdge, 4.0});
}

TEST(ProjectionFloor, OwnCloudIsTheFastest) {
  const Platform platform({1.0}, std::vector<double>{1.5, 2.0});
  const Job job{0, 0, 4.0, 0.0, 1.0, 0.0};
  JobFields f = unassigned(platform, job);
  f.alloc = 1;  // uploaded to the fastest cloud, a quarter of the work left
  f.rem_up = 0.0;
  f.rem_work = 1.0;
  f.rem_down = 0.0;
  ResourceClock clock(platform, 0.0);
  // Keep: 1 / 2. Every restart takes at least 1 + 4 / 2: no scan needed.
  expect_choice(platform, clock, f, {1, 0.5});
  // Cloud 1 busy until 10: keep 10.5 loses to the edge's 4, which loses
  // to a restart on cloud 0 at 1 + 4 / 1.5.
  const Job blocker{1, 0, 20.0, 0.0, 0.0, 0.0};
  (void)clock.commit(platform, unassigned(platform, blocker), 1);
  expect_choice(platform, clock, f, {0, 1.0 + 4.0 / 1.5});
}

// place() is best_target_sticky, starts_now and commit in one call: same
// target, completion and start flag, and the same lanes after, with and
// without outages.
TEST(ProjectionFloor, PlaceMatchesSelectStartAndCommit) {
  const std::vector<std::vector<double>> speed_sets = cloud_speed_sets();
  for (std::size_t set = 0; set < speed_sets.size(); ++set) {
    for (const bool outages : {false, true}) {
      SCOPED_TRACE(std::to_string(speed_sets[set].size()) + " clouds, set " +
                   std::to_string(set) + (outages ? " +outages" : ""));
      Rng rng(set * 2 + outages + 53);
      const Instance instance =
          make_projection_instance(speed_sets[set], outages, rng);
      const Platform& platform = instance.platform;
      ResourceClock split(instance, 0.0);
      ResourceClock fused(instance, 0.0);
      for (int pass = 0; pass < 40; ++pass) {
        const Time now = rng.uniform(0.0, 30.0);
        split.reset(now);
        fused.reset(now);
        const int commits = static_cast<int>(rng.uniform_int(0, 16));
        for (int i = 0; i <= commits; ++i) {
          Job job;
          const JobFields f = random_fields(platform, rng, job);
          if (rng.bernoulli(0.25)) {
            // A random target, so the passes reach clock states the
            // best-target choice alone would not.
            const int target = static_cast<int>(
                rng.uniform_int(kAllocEdge, platform.cloud_count() - 1));
            ASSERT_EQ(split.commit(platform, f, target),
                      fused.commit(platform, f, target));
            continue;
          }
          const auto want = split.best_target_sticky(platform, f);
          const bool immediate =
              split.starts_now(platform, f, want.first, now);
          ASSERT_EQ(split.commit(platform, f, want.first), want.second);
          // Half the calls pass no flag, as SSF-EDF's probes do.
          const bool ask = rng.bernoulli(0.5);
          bool got_immediate = !immediate;
          const auto got =
              fused.place(platform, f, now, ask ? &got_immediate : nullptr);
          ASSERT_EQ(got.first, want.first) << "pass " << pass << " job " << i;
          ASSERT_EQ(got.second, want.second) << "pass " << pass << " job " << i;
          if (ask) {
            ASSERT_EQ(got_immediate, immediate)
                << "pass " << pass << " job " << i;
          }
          ASSERT_TRUE(fused == split) << "pass " << pass << " job " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ecs
