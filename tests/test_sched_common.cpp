// Tests for the shared policy helpers (sched/common.hpp): sticky target
// selection (ResourceClock::best_target_sticky, which the list assignment
// uses), the immediate-start list assignment, the (key, id) sort and the
// PickSet's fresh-cloud pick.
#include "sched/common.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "pool_view.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

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

bool same_entry(const OrderedJob& a, const OrderedJob& b) {
  return a.id == b.id && a.pos == b.pos && a.key == b.key;
}

/// sort_ordered must leave exactly std::sort's (key, id) order and return
/// the length of the prefix its input and output share.
void expect_sorts_like_std_sort(const std::vector<OrderedJob>& input) {
  std::vector<OrderedJob> expected = input;
  std::sort(expected.begin(), expected.end(),
            [](const OrderedJob& a, const OrderedJob& b) {
              return a.key != b.key ? a.key < b.key : a.id < b.id;
            });
  std::vector<OrderedJob> actual = input;
  const std::size_t changed = sort_ordered(actual);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_TRUE(same_entry(actual[i], expected[i])) << "position " << i;
  }
  std::size_t shared = 0;
  while (shared < input.size() && same_entry(input[shared], expected[shared])) {
    ++shared;
  }
  EXPECT_EQ(changed, shared);
}

/// `n` entries with ids 0..n-1 and keys `key(i)`; pos records the entry.
template <typename KeyFn>
std::vector<OrderedJob> entries(std::size_t n, KeyFn key) {
  std::vector<OrderedJob> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(static_cast<JobId>(i), key(i),
                     static_cast<std::int32_t>(i));
  }
  return out;
}

/// Fisher-Yates with the repository's seeded generator.
void shuffle(std::vector<OrderedJob>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

TEST(SortOrdered, EmptyAndSingleEntry) {
  expect_sorts_like_std_sort({});
  expect_sorts_like_std_sort({{7, 1.5, 0}});
}

TEST(SortOrdered, RandomInputs) {
  Rng rng(11);
  for (const std::size_t n : {2U, 5U, 17U, 64U, 300U}) {
    SCOPED_TRACE(n);
    std::vector<OrderedJob> v =
        entries(n, [&](std::size_t) { return rng.uniform(0.0, 10.0); });
    shuffle(v, rng);
    expect_sorts_like_std_sort(v);
  }
}

TEST(SortOrdered, SortedInputIsUnchanged) {
  const std::vector<OrderedJob> v =
      entries(100, [](std::size_t i) { return 0.5 * static_cast<double>(i); });
  std::vector<OrderedJob> copy = v;
  EXPECT_EQ(sort_ordered(copy), v.size());
  expect_sorts_like_std_sort(v);
}

TEST(SortOrdered, ReversedInput) {
  // 10 entries need 45 moves, inside the budget; 200 need far more.
  for (const std::size_t n : {10U, 200U}) {
    SCOPED_TRACE(n);
    std::vector<OrderedJob> v =
        entries(n, [](std::size_t i) { return static_cast<double>(i); });
    std::reverse(v.begin(), v.end());
    expect_sorts_like_std_sort(v);
  }
}

TEST(SortOrdered, OneEntryMoved) {
  const std::vector<OrderedJob> sorted =
      entries(200, [](std::size_t i) { return static_cast<double>(i); });
  for (const auto& [from, to] : {std::pair{150, 20}, std::pair{20, 150},
                                std::pair{199, 0}, std::pair{0, 199}}) {
    SCOPED_TRACE(testing::Message() << from << " -> " << to);
    std::vector<OrderedJob> v = sorted;
    const OrderedJob moved = v[static_cast<std::size_t>(from)];
    v.erase(v.begin() + from);
    v.insert(v.begin() + to, moved);
    expect_sorts_like_std_sort(v);
  }
}

TEST(SortOrdered, EqualKeysOrderById) {
  Rng rng(12);
  for (const double key : {1.0, kTimeInfinity}) {
    std::vector<OrderedJob> v = entries(50, [&](std::size_t) { return key; });
    shuffle(v, rng);
    expect_sorts_like_std_sort(v);
  }
  // Two key values, interleaved ids.
  std::vector<OrderedJob> v = entries(
      60, [](std::size_t i) { return i % 2 == 0 ? 2.0 : 1.0; });
  shuffle(v, rng);
  expect_sorts_like_std_sort(v);
}

TEST(SortOrdered, PastTheMoveBudget) {
  // A sorted head of 50 entries, then 150 in reverse (11 175 moves, over
  // the budget of 8 per entry): the fallback must still report the head.
  std::vector<OrderedJob> v =
      entries(200, [](std::size_t i) { return static_cast<double>(i); });
  std::reverse(v.begin() + 50, v.end());
  expect_sorts_like_std_sort(v);
  // The same with one tail entry that belongs inside the head: only the
  // head entries below it keep their positions.
  v.back().key = 25.5;
  expect_sorts_like_std_sort(v);
  // And with the smallest entry last: nothing keeps its position.
  v.back().key = -1.0;
  expect_sorts_like_std_sort(v);
}

// PickSet::fresh() must be pick_fresh_cloud's answer after every claim,
// whether it comes from the speed-ordered cursor (no outages) or from the
// scan (outages).

/// Eight unassigned jobs on two edges, released at 0, over clouds of the
/// given speeds.
Instance pick_instance(std::vector<double> cloud_speeds) {
  Instance instance;
  instance.platform = Platform({1.0, 0.5}, std::move(cloud_speeds));
  for (JobId id = 0; id < 8; ++id) {
    Job job;
    job.id = id;
    job.origin = id % 2;
    job.work = 1.0 + id;
    job.up = 0.25;
    job.down = 0.25;
    instance.jobs.push_back(job);
  }
  return instance;
}

/// Claims the clouds in `order`, one job each, with an edge claim and a
/// keep between (so at most 6 clouds for the 8 jobs). Checks fresh()
/// against pick_fresh_cloud on the same free clouds after every claim, and
/// -1 once every cloud is taken.
void expect_fresh_tracks_scan(PickSet& set, const SimView& view,
                              const std::vector<int>& order) {
  const auto eval = [](std::int32_t) -> std::optional<double> { return 1.0; };
  set.begin(view, eval);
  ASSERT_LE(order.size() + 2, static_cast<std::size_t>(set.size()));
  std::vector<char> free(order.size(), 1);
  ASSERT_EQ(set.fresh(), pick_fresh_cloud(view, free));
  std::int32_t job = 0;
  for (const int cloud : order) {
    set.claim(job++, cloud, eval);
    free[static_cast<std::size_t>(cloud)] = 0;
    ASSERT_EQ(set.fresh(), pick_fresh_cloud(view, free))
        << "after claiming cloud " << cloud;
    if (job == 2) {
      set.claim(job++, kAllocEdge, eval);
      ASSERT_EQ(set.fresh(), pick_fresh_cloud(view, free));
    }
    if (job == 4) {
      set.claim(job++, kTargetKeep, eval);
      ASSERT_EQ(set.fresh(), pick_fresh_cloud(view, free));
    }
  }
  EXPECT_EQ(set.fresh(), -1);
}

/// Every claim order of `instance`'s clouds, on one reused PickSet.
void expect_fresh_tracks_scan_in_every_order(PickSet& set,
                                             const Instance& instance) {
  const PoolView round(instance, 1.0);
  const SimView view = round.view();
  std::vector<int> order(
      static_cast<std::size_t>(instance.platform.cloud_count()));
  for (std::size_t k = 0; k < order.size(); ++k) {
    order[k] = static_cast<int>(k);
  }
  do {
    expect_fresh_tracks_scan(set, view, order);
    if (::testing::Test::HasFatalFailure()) return;
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(PickSetFresh, HeterogeneousSpeedsWithTies) {
  PickSet set;
  expect_fresh_tracks_scan_in_every_order(set,
                                          pick_instance({2, 1, 2, 3, 3}));
}

TEST(PickSetFresh, FollowsAChangeOfCloudSpeeds) {
  // One set across decide() calls on different platforms: the speed order
  // it keeps must follow the speeds.
  PickSet set;
  expect_fresh_tracks_scan_in_every_order(set, pick_instance({1, 2, 3}));
  expect_fresh_tracks_scan_in_every_order(set, pick_instance({3, 2, 1}));
  expect_fresh_tracks_scan_in_every_order(set, pick_instance({1, 1, 1, 1}));
  expect_fresh_tracks_scan_in_every_order(set, pick_instance({1, 2, 3}));
}

TEST(PickSetFresh, OutagesTakeTheScan) {
  // At t = 1 the two fastest clouds are out: they serve only once every
  // available cloud is taken.
  Instance instance = pick_instance({2, 1, 2, 3, 3});
  instance.cloud_outages.resize(5);
  instance.cloud_outages[3].add(0.5, 2.0);
  instance.cloud_outages[4].add(0.0, 4.0);
  instance.cloud_outages[1].add(3.0, 4.0);  // not yet
  PickSet set;
  expect_fresh_tracks_scan_in_every_order(set, instance);
  const PoolView round(instance, 1.0);
  const SimView view = round.view();
  set.begin(view, [](std::int32_t) -> std::optional<double> { return 1.0; });
  EXPECT_EQ(set.fresh(), 0);
}

TEST(PickSetFresh, NoCloud) {
  PickSet set;
  const Instance instance = pick_instance({});
  const PoolView round(instance, 1.0);
  const SimView view = round.view();
  set.begin(view, [](std::int32_t) -> std::optional<double> { return 1.0; });
  EXPECT_EQ(set.fresh(), -1);
}

}  // namespace
}  // namespace ecs
