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
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "no_elision.hpp"
#include "obs/trace.hpp"
#include "pool_view.hpp"
#include "reference_policies.hpp"
#include "run_digest.hpp"
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

SimResult run(const Workload& w, Policy& policy, bool elide = true,
              obs::TraceSink* trace = nullptr) {
  EngineConfig config;
  config.record_schedule = true;
  config.faults = w.faults;
  config.trace = trace;
  NoElision plain(policy);
  return simulate(w.instance, elide ? policy : plain, config);
}

/// Table check of one cell's world and traced default-config run (see
/// tests/run_digest.hpp; the tables sit at the end of this file).
void expect_digest(std::span<const DigestRow> table, const std::string& cell,
                   const Workload& w, Policy& policy) {
  obs::MemoryTraceSink sink;
  const SimResult result = run(w, policy, true, &sink);
  expect_recorded_digest(table, cell, world_digest(w.instance, w.faults),
                         run_digest(result, sink.records()));
}

std::span<const DigestRow> policy_digests();
std::span<const DigestRow> alpha_digests();

std::string cell_name(std::string policy_name, int world) {
  for (char& c : policy_name) {
    if (c == '-') c = '_';
  }
  if (world == kHeteroCloudWorld) return policy_name + "_hetero_clouds";
  if (world == kNearTieWorld) return policy_name + "_near_ties";
  if (world == kMarginChainWorld) return policy_name + "_margin_chain";
  return policy_name + "_seed" + std::to_string(world);
}

std::string alpha_cell_name(double alpha, int world) {
  return std::string(alpha < 1.0 ? "alpha_half" : "alpha_4") + "_world" +
         std::to_string(world);
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

// No-op round elision must not open any gap to the frozen reference
// either: the optimized policy, run with elision on and off, still matches
// the reference run bit for bit. (The reference policies never opt into
// elision, so one reference run anchors both optimized configurations.)
TEST_P(PolicyEquivalence, HotPathConfigsAllMatchTheReference) {
  const auto& [policy_name, seed] = GetParam();
  const Workload w = make_workload(seed);

  const auto reference = ref::make_reference_policy(policy_name);
  const SimResult want = run(w, *reference);

  for (const bool elide : {true, false}) {
    const auto optimized = make_policy(policy_name);
    const SimResult got = run(w, *optimized, elide);
    SCOPED_TRACE(elide ? "elide" : "no-elide");
    expect_same_run(got, want);
  }
}

// The frozen reference only sees drift that the optimized policies do not
// share with it; a change in the engine both run on shows up only in the
// recorded run digests.
TEST_P(PolicyEquivalence, MatchesRecordedDigest) {
  const auto& [policy_name, seed] = GetParam();
  const auto policy = make_policy(policy_name);
  expect_digest(policy_digests(), cell_name(policy_name, seed),
                make_workload(seed), *policy);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeeds, PolicyEquivalence,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "srpt-noreexec", "ssf-edf", "fcfs",
                                         "failover-srpt"),
                       ::testing::Range(0, kWorldCount)),
    [](const auto& param_info) {
      return cell_name(std::get<0>(param_info.param),
                       std::get<1>(param_info.param));
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

TEST_P(SsfEdfAlpha, MatchesRecordedDigest) {
  const auto& [alpha, seed] = GetParam();
  SsfEdfConfig config;
  config.alpha = alpha;
  SsfEdfPolicy policy(config);
  expect_digest(alpha_digests(), alpha_cell_name(alpha, seed),
                make_workload(seed), policy);
}

INSTANTIATE_TEST_SUITE_P(
    AlphasBySeeds, SsfEdfAlpha,
    ::testing::Combine(::testing::Values(0.5, 4.0),
                       ::testing::Range(0, kWorldCount)),
    [](const auto& param_info) {
      return alpha_cell_name(std::get<0>(param_info.param),
                             std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Zero-allocation: drive decide() directly on a pool-backed view. After the
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
    Time now = 0.0;
    for (const Job& job : instance.jobs) now = std::max(now, job.release);
    events = {Event{EventKind::kRelease, instance.jobs.back().id, now, -1}};
    round.emplace(instance, now);
  }
  AllLiveRound(const AllLiveRound&) = delete;  // the round points into it
  AllLiveRound& operator=(const AllLiveRound&) = delete;

  [[nodiscard]] SimView view() const { return round->view(); }

  Instance instance;
  std::vector<Event> events;
  std::optional<PoolView> round;  ///< built last: it points at `instance`
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
    unit.decide(setup.view(), setup.events, unit_out);
    half.decide(setup.view(), setup.events, half_out);

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
  const SimView view = setup.view();
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

// ---------------------------------------------------------------------------
// Recorded run digests, one row per PolicyEquivalence / SsfEdfAlpha cell:
// {cell, world digest, run digest}. A failing check prints its replacement
// row. The values hold for the portable build (see tests/run_digest.hpp).

std::span<const DigestRow> policy_digests() {
  static constexpr DigestRow kRows[] = {
      {"edge_only_seed0", 0x112d9b428b594f29, 0xe4bfe02c63104afa},
      {"edge_only_seed1", 0x213514a4ab09e484, 0x3920cd9e20b2cab3},
      {"edge_only_seed2", 0x061db414eab6130a, 0xd5cfe6259ede6597},
      {"edge_only_seed3", 0xb4bda944aee503e1, 0x7b4f43360c2404d6},
      {"edge_only_seed4", 0x9e2559d1414a4da9, 0xb150fbe41aa3442d},
      {"edge_only_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0xd2a026861ee8d4c3},
      {"edge_only_near_ties", 0x379e2186e54bce09, 0xb7f0135512f9f0ff},
      {"edge_only_margin_chain", 0x9a967abfe8680aa5, 0x5285de1dbbd9835e},
      {"greedy_seed0", 0x112d9b428b594f29, 0x9b9f2ce2b0ad2e1a},
      {"greedy_seed1", 0x213514a4ab09e484, 0x69cfdb2226d8acf2},
      {"greedy_seed2", 0x061db414eab6130a, 0x03df58f1206f6011},
      {"greedy_seed3", 0xb4bda944aee503e1, 0x112f1ebfe6e85550},
      {"greedy_seed4", 0x9e2559d1414a4da9, 0x14f94c416cf40a57},
      {"greedy_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0x3c902a8956bba67e},
      {"greedy_near_ties", 0x379e2186e54bce09, 0x54d72ccc1058094e},
      {"greedy_margin_chain", 0x9a967abfe8680aa5, 0x216d49928a1f3b8d},
      {"srpt_seed0", 0x112d9b428b594f29, 0xed533a72bfa4f339},
      {"srpt_seed1", 0x213514a4ab09e484, 0xa5ef998a83acbf0e},
      {"srpt_seed2", 0x061db414eab6130a, 0xc824b52700e403cf},
      {"srpt_seed3", 0xb4bda944aee503e1, 0x5adf39813c1cf2e6},
      {"srpt_seed4", 0x9e2559d1414a4da9, 0x597685ce33cbe152},
      {"srpt_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0x295435f44c97b1ca},
      {"srpt_near_ties", 0x379e2186e54bce09, 0x792b3be33be1facf},
      {"srpt_margin_chain", 0x9a967abfe8680aa5, 0xf6e58e1567a87a08},
      {"srpt_noreexec_seed0", 0x112d9b428b594f29, 0xd426dac09529afbe},
      {"srpt_noreexec_seed1", 0x213514a4ab09e484, 0x65acbeb92b7ea3f6},
      {"srpt_noreexec_seed2", 0x061db414eab6130a, 0x4703f1bdd5ef9756},
      {"srpt_noreexec_seed3", 0xb4bda944aee503e1, 0xc373919dd9a78d2f},
      {"srpt_noreexec_seed4", 0x9e2559d1414a4da9, 0x5bd3527e83611ee3},
      {"srpt_noreexec_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0xf6e1ae8d4d1bc58d},
      {"srpt_noreexec_near_ties", 0x379e2186e54bce09, 0x2be6896233b8656d},
      {"srpt_noreexec_margin_chain", 0x9a967abfe8680aa5, 0x1b3a5c8e8ab26ebc},
      {"ssf_edf_seed0", 0x112d9b428b594f29, 0xf82683c8d669e685},
      {"ssf_edf_seed1", 0x213514a4ab09e484, 0x928f1eb38f4b8235},
      {"ssf_edf_seed2", 0x061db414eab6130a, 0xdc64b35f3794ec5e},
      {"ssf_edf_seed3", 0xb4bda944aee503e1, 0x1096764732df533b},
      {"ssf_edf_seed4", 0x9e2559d1414a4da9, 0x621afb163b507e4b},
      {"ssf_edf_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0xadeeeafdb108a62d},
      {"ssf_edf_near_ties", 0x379e2186e54bce09, 0xa1ffc6844c553292},
      {"ssf_edf_margin_chain", 0x9a967abfe8680aa5, 0x29b5ad71bccde7e3},
      {"fcfs_seed0", 0x112d9b428b594f29, 0x544582e66799b7b2},
      {"fcfs_seed1", 0x213514a4ab09e484, 0x2a37269cfb074b13},
      {"fcfs_seed2", 0x061db414eab6130a, 0xb55009828fc2014a},
      {"fcfs_seed3", 0xb4bda944aee503e1, 0x1bf0f5bf7fcffd04},
      {"fcfs_seed4", 0x9e2559d1414a4da9, 0x56b51826f52089b7},
      {"fcfs_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0x02927d3f66a5650d},
      {"fcfs_near_ties", 0x379e2186e54bce09, 0x9b9f4fa8c6426aa1},
      {"fcfs_margin_chain", 0x9a967abfe8680aa5, 0x5a43535097ed0318},
      {"failover_srpt_seed0", 0x112d9b428b594f29, 0xed533a72bfa4f339},
      {"failover_srpt_seed1", 0x213514a4ab09e484, 0xac33b1ff4f2cab67},
      {"failover_srpt_seed2", 0x061db414eab6130a, 0xc824b52700e403cf},
      {"failover_srpt_seed3", 0xb4bda944aee503e1, 0x5adf39813c1cf2e6},
      {"failover_srpt_seed4", 0x9e2559d1414a4da9, 0x4a3879a03c4c2ccc},
      {"failover_srpt_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0x6088689b02c06db1},
      {"failover_srpt_near_ties", 0x379e2186e54bce09, 0x06652fd86e5ffae4},
      {"failover_srpt_margin_chain", 0x9a967abfe8680aa5, 0xc8b121eb6b5481b3},
  };
  return kRows;
}

std::span<const DigestRow> alpha_digests() {
  static constexpr DigestRow kRows[] = {
      {"alpha_half_world0", 0x112d9b428b594f29, 0xf82683c8d669e685},
      {"alpha_half_world1", 0x213514a4ab09e484, 0x928f1eb38f4b8235},
      {"alpha_half_world2", 0x061db414eab6130a, 0xdc64b35f3794ec5e},
      {"alpha_half_world3", 0xb4bda944aee503e1, 0x1096764732df533b},
      {"alpha_half_world4", 0x9e2559d1414a4da9, 0x621afb163b507e4b},
      {"alpha_half_world5", 0x4a5cbe1c4aaf87f0, 0xadeeeafdb108a62d},
      {"alpha_half_world6", 0x379e2186e54bce09, 0xa1ffc6844c553292},
      {"alpha_half_world7", 0x9a967abfe8680aa5, 0x29b5ad71bccde7e3},
      {"alpha_4_world0", 0x112d9b428b594f29, 0x51202d7225efd29b},
      {"alpha_4_world1", 0x213514a4ab09e484, 0x5f5d84969a1a7b81},
      {"alpha_4_world2", 0x061db414eab6130a, 0x57512a371be81878},
      {"alpha_4_world3", 0xb4bda944aee503e1, 0x8e707591a2ce255f},
      {"alpha_4_world4", 0x9e2559d1414a4da9, 0x4f37b912ca7895c3},
      {"alpha_4_world5", 0x4a5cbe1c4aaf87f0, 0x526169f90f99062a},
      {"alpha_4_world6", 0x379e2186e54bce09, 0xc7fc7f5cb67731f7},
      {"alpha_4_world7", 0x9a967abfe8680aa5, 0x137718e727bcab79},
  };
  return kRows;
}

}  // namespace
}  // namespace ecs
