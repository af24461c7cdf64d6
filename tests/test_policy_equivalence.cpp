// Policy-equivalence harness for the O(live) arbitration rewrite.
//
// Two guarantees pinned here, with no tolerance to hide behind:
//
//  1. Bit-identical schedules: for random instances (with outages and
//     unannounced faults), every factory policy must produce EXACTLY the
//     same run as its frozen pre-rewrite reference implementation
//     (tests/reference_policies.hpp) — completion times equal to the bit,
//     stats (including reassignment counts) equal field by field, interval
//     histories and fault logs identical. The workspace reuse, the
//     live-span iteration and the warm-started stretch search are pure
//     optimizations; any behavioral drift fails this suite exactly.
//
//  2. Zero steady-state allocations: after a warm-up call, decide() on an
//     unchanged live set performs no heap allocation at all, for every
//     factory policy. Verified with a counting global operator new.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "reference_policies.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every global allocation in this binary bumps the
// counter. The zero-allocation test measures the delta across warmed
// decide() calls; everything else (gtest bookkeeping, setup) happens
// outside the measured window and is unaffected.
namespace {
std::atomic<std::size_t> g_alloc_calls{0};

void* counted_alloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

namespace ecs {
namespace {

struct Workload {
  Instance instance;
  FaultPlan faults;
};

/// Worlds past the random seeds, each pinning one branch of the cached
/// Greedy/SRPT pick loops or of the best-target kernel.
constexpr int kRandomWorlds = 5;
/// Mixed cloud speeds {0.5, 1, 1, 2}: the best-target kernel's
/// mixed-speed fill (one division per cloud).
constexpr int kHeteroCloudWorld = kRandomWorlds;
/// Every job duplicated (equal origin, release and amounts): the pick
/// loops' kDecisionMargin tie-breaks, which follow scan order.
constexpr int kNearTieWorld = kRandomWorlds + 1;
/// Three copies of every job, each copy's edge estimate and stretch
/// 0.3-0.9 kDecisionMargin from the previous copy's: chains of ties that
/// are not transitive, where the pick loops must fall back to the scan.
constexpr int kMarginChainWorld = kRandomWorlds + 2;
constexpr int kWorldCount = kRandomWorlds + 3;

Workload make_special_workload(int world) {
  Workload w;
  RandomInstanceConfig cfg;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = 0.3;
  FaultConfig fault_cfg;
  fault_cfg.crash_rate = 0.002;
  fault_cfg.mean_repair = 20.0;
  fault_cfg.loss_rate = 0.005;
  fault_cfg.horizon = 500.0;
  if (world == kHeteroCloudWorld) {
    cfg.n = 150;
    cfg.cloud_count = 4;
    Rng rng(1000 + world);
    w.instance = make_random_instance(cfg, rng);
    w.instance.platform =
        Platform(w.instance.platform.edge_speeds(),
                 std::vector<double>{0.5, 1.0, 1.0, 2.0});
  } else if (world == kNearTieWorld) {
    cfg.n = 75;
    cfg.cloud_count = 3;
    Rng rng(1000 + world);
    const Instance base = make_random_instance(cfg, rng);
    w.instance.platform = base.platform;
    for (const Job& job : base.jobs) {
      for (int copy = 0; copy < 2; ++copy) {
        Job twin = job;
        twin.id = w.instance.job_count();
        w.instance.jobs.push_back(twin);
      }
    }
  } else {
    cfg.n = 50;
    cfg.cloud_count = 3;
    Rng rng(1000 + world);
    const Instance base = make_random_instance(cfg, rng);
    w.instance.platform = base.platform;
    for (const Job& job : base.jobs) {
      // Copy c finishes c * step later on its edge and is released
      // (2 - c) * step * (best_time - 1) later, so from copy to copy the
      // edge estimate and the edge stretch (done - release) / best_time
      // both grow by about `step`.
      const double step = rng.uniform(0.3, 0.9) * kDecisionMargin;
      const double speed = base.platform.edge_speed(job.origin);
      const double lead = std::max(base.platform.best_time(job) - 1.0, 0.0);
      for (int copy = 0; copy < 3; ++copy) {
        Job twin = job;
        twin.id = w.instance.job_count();
        twin.work += copy * step * speed;
        twin.release += (2 - copy) * step * lead;
        w.instance.jobs.push_back(twin);
      }
    }
  }
  Rng fault_rng(3000 + world);
  w.faults = make_fault_plan(w.instance.platform.cloud_count(), fault_cfg,
                             fault_rng);
  return w;
}

/// Same workload family as the engine-equivalence suite: random
/// instances, announced outages on odd seeds, unannounced crashes and
/// message losses on most seeds. Seeds from kRandomWorlds on select the
/// special worlds above.
Workload make_workload(int seed) {
  if (seed >= kRandomWorlds) return make_special_workload(seed);
  Workload w;
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = seed % 2 == 0 ? 0.1 : 0.3;
  cfg.ccr = seed % 3 == 0 ? 5.0 : 1.0;
  Rng rng(1000 + seed);
  w.instance = make_random_instance(cfg, rng);

  if (seed % 2 == 1) {
    OutageConfig outage_cfg;
    outage_cfg.fraction = 0.1;
    outage_cfg.mean_duration = 10.0;
    outage_cfg.horizon = 500.0;
    Rng outage_rng(2000 + seed);
    w.instance.cloud_outages =
        make_cloud_outages(cfg.cloud_count, outage_cfg, outage_rng);
  }
  if (seed % 3 != 0) {
    FaultConfig fault_cfg;
    fault_cfg.crash_rate = 0.002;
    fault_cfg.mean_repair = 20.0;
    fault_cfg.loss_rate = 0.005;
    fault_cfg.horizon = 500.0;
    Rng fault_rng(3000 + seed);
    w.faults = make_fault_plan(cfg.cloud_count, fault_cfg, fault_rng);
  }
  return w;
}

SimResult run(const Workload& w, Policy& policy, bool snapshot_views = false,
              bool elide = true) {
  EngineConfig config;
  config.record_schedule = true;
  config.faults = w.faults;
  config.snapshot_policy_views = snapshot_views;
  config.elide_invariant_rounds = elide;
  return simulate(w.instance, policy, config);
}

void expect_same_run_record(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.alloc, b.alloc);
  EXPECT_EQ(a.exec, b.exec);
  EXPECT_EQ(a.uplink, b.uplink);
  EXPECT_EQ(a.downlink, b.downlink);
}

void expect_same_schedule(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.job_count(), b.job_count());
  for (int id = 0; id < a.job_count(); ++id) {
    expect_same_run_record(a.job(id).final_run, b.job(id).final_run);
    ASSERT_EQ(a.job(id).abandoned.size(), b.job(id).abandoned.size());
    for (std::size_t r = 0; r < a.job(id).abandoned.size(); ++r) {
      expect_same_run_record(a.job(id).abandoned[r], b.job(id).abandoned[r]);
    }
  }
}

/// Everything except policy_seconds (wall time is never reproducible).
void expect_same_stats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.reassignments, b.reassignments);
  EXPECT_EQ(a.fault_aborts, b.fault_aborts);
  EXPECT_EQ(a.message_losses, b.message_losses);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.uplink_retransmits, b.uplink_retransmits);
  EXPECT_EQ(a.downlink_retransmits, b.downlink_retransmits);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
}

void expect_same_fault_log(const std::vector<Event>& a,
                           const std::vector<Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].job, b[i].job);
    EXPECT_EQ(a[i].time, b[i].time);  // exact: same arithmetic, same bits
    EXPECT_EQ(a[i].cloud, b[i].cloud);
  }
}

/// Completions, stats, fault log and schedule, all compared exactly.
void expect_same_run(const SimResult& got, const SimResult& want) {
  ASSERT_EQ(got.completions.size(), want.completions.size());
  for (std::size_t i = 0; i < got.completions.size(); ++i) {
    EXPECT_EQ(got.completions[i], want.completions[i]) << "job " << i;
  }
  expect_same_stats(got.stats, want.stats);
  expect_same_fault_log(got.fault_log, want.fault_log);
  expect_same_schedule(got.schedule, want.schedule);
}

class PolicyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PolicyEquivalence, MatchesFrozenReferenceBitForBit) {
  const auto& [policy_name, seed] = GetParam();
  const Workload w = make_workload(seed);

  const auto optimized = make_policy(policy_name);
  const auto reference = ref::make_reference_policy(policy_name);

  expect_same_run(run(w, *optimized), run(w, *reference));
}

// The PR-8 hot-path switches must not open any gap to the frozen
// reference either: the optimized policy, run under every combination of
// {SoA field view, AoS snapshot view} x {elision on, off}, still matches
// the reference run bit for bit. (The reference policies never opt into
// elision and read through whichever view they are handed, so one
// reference run anchors all four optimized configurations.)
TEST_P(PolicyEquivalence, HotPathConfigsAllMatchTheReference) {
  const auto& [policy_name, seed] = GetParam();
  const Workload w = make_workload(seed);

  const auto reference = ref::make_reference_policy(policy_name);
  const SimResult want = run(w, *reference);

  for (const bool snapshot_views : {false, true}) {
    for (const bool elide : {true, false}) {
      const auto optimized = make_policy(policy_name);
      const SimResult got = run(w, *optimized, snapshot_views, elide);
      SCOPED_TRACE(std::string(snapshot_views ? "snapshot" : "field-view") +
                   (elide ? "+elide" : "+no-elide"));
      expect_same_run(got, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeeds, PolicyEquivalence,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "srpt-noreexec", "ssf-edf", "fcfs",
                                         "failover-srpt"),
                       ::testing::Range(0, kWorldCount)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      const int world = std::get<1>(param_info.param);
      if (world == kHeteroCloudWorld) return name + "_hetero_clouds";
      if (world == kNearTieWorld) return name + "_near_ties";
      if (world == kMarginChainWorld) return name + "_margin_chain";
      return name + "_seed" + std::to_string(world);
    });

// SSF-EDF's alpha paths. alpha > 1 locks in deadlines at a stretch the
// search never probed; alpha < 1 makes the scaled target infeasible, so
// recompute_deadlines falls back to the verified stretch. Both must match
// the frozen reference run with the same config, bit for bit.

class SsfEdfAlpha
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(SsfEdfAlpha, MatchesFrozenReferenceBitForBit) {
  const auto& [alpha, seed] = GetParam();
  const Workload w = make_workload(seed);
  SsfEdfConfig config;
  config.alpha = alpha;
  SsfEdfPolicy optimized(config);
  ref::SsfEdfPolicy reference(config);
  expect_same_run(run(w, optimized), run(w, reference));
}

INSTANTIATE_TEST_SUITE_P(
    AlphasBySeeds, SsfEdfAlpha,
    ::testing::Combine(::testing::Values(0.5, 4.0),
                       ::testing::Range(0, kWorldCount)),
    [](const auto& param_info) {
      const double alpha = std::get<0>(param_info.param);
      return std::string(alpha < 1.0 ? "alpha_half" : "alpha_4") + "_world" +
             std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Zero-allocation: drive decide() directly on a hand-built view. After the
// first call warmed every workspace buffer, repeated decisions on the same
// live set must not touch the heap.

/// Every job of a random instance live and unassigned at a time past the
/// last release: the worst-case decision round (policies see the full
/// instance at once). A release in the batch exercises the
/// deadline-recompute (stretch search) path of SSF-EDF and Edge-Only.
struct AllLiveRound {
  explicit AllLiveRound(std::uint64_t seed) {
    RandomInstanceConfig cfg;
    cfg.n = 64;
    cfg.cloud_count = 3;
    cfg.slow_edges = 2;
    cfg.fast_edges = 2;
    cfg.load = 0.3;
    Rng rng(seed);
    instance = make_random_instance(cfg, rng);
    states.reserve(instance.jobs.size());
    for (const Job& job : instance.jobs) {
      live.push_back(job.id);
      now = std::max(now, job.release);
      JobState s;
      s.job = job;
      s.best_time = instance.platform.best_time(job);
      s.rem_work = job.work;
      s.released = true;
      states.push_back(s);
    }
    events = {Event{EventKind::kRelease, instance.jobs.back().id, now, -1}};
    view.emplace(instance, states, now, &live);
  }
  AllLiveRound(const AllLiveRound&) = delete;  // the view points into it
  AllLiveRound& operator=(const AllLiveRound&) = delete;

  Instance instance;
  std::vector<JobState> states;
  std::vector<JobId> live;
  Time now = 0.0;
  std::vector<Event> events;
  std::optional<SimView> view;  ///< built last: it copies `now`
};

// When alpha * S is infeasible the policy reports, and locks in, the
// verified stretch S itself: the alpha = 1/2 policy ends its decision with
// the same target stretch and the same directives as the alpha = 1 one.
TEST(SsfEdfAlphaFallback, InfeasibleScaledTargetKeepsVerifiedStretch) {
  for (const std::uint64_t seed : {42U, 43U, 44U}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const AllLiveRound setup(seed);
    SsfEdfPolicy unit;
    SsfEdfConfig half_config;
    half_config.alpha = 0.5;
    SsfEdfPolicy half(half_config);
    unit.reset(setup.instance);
    half.reset(setup.instance);
    std::vector<Directive> unit_out;
    std::vector<Directive> half_out;
    unit.decide(*setup.view, setup.events, unit_out);
    half.decide(*setup.view, setup.events, half_out);

    const double verified = unit.last_target_stretch();
    ASSERT_GT(verified, 1.0);  // a contended round, not the trivial S = 1
    EXPECT_EQ(half.last_target_stretch(), verified);
    ASSERT_EQ(half_out.size(), unit_out.size());
    for (std::size_t i = 0; i < half_out.size(); ++i) {
      EXPECT_EQ(half_out[i].job, unit_out[i].job) << "rank " << i;
      EXPECT_EQ(half_out[i].target, unit_out[i].target) << "rank " << i;
      EXPECT_EQ(half_out[i].priority, unit_out[i].priority) << "rank " << i;
    }
  }
}

class ZeroAllocation : public ::testing::TestWithParam<std::string> {};

TEST_P(ZeroAllocation, SteadyStateDecideDoesNotAllocate) {
  const std::string& policy_name = GetParam();
  const AllLiveRound setup(42);
  const Instance& instance = setup.instance;
  const SimView& view = *setup.view;
  const std::vector<Event>& events = setup.events;

  const auto policy = make_policy(policy_name);
  policy->reset(instance);

  std::vector<Directive> out;
  for (int warm = 0; warm < 3; ++warm) {
    out.clear();
    policy->decide(view, events, out);
  }
  ASSERT_FALSE(out.empty());

  const std::size_t before = g_alloc_calls.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    out.clear();
    policy->decide(view, events, out);
  }
  const std::size_t after = g_alloc_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0U)
      << policy->name() << " allocated in steady-state decide()";
}

INSTANTIATE_TEST_SUITE_P(AllFactoryPolicies, ZeroAllocation,
                         ::testing::Values("edge-only", "greedy", "srpt",
                                           "srpt-noreexec", "ssf-edf",
                                           "fcfs", "failover-srpt"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ecs
