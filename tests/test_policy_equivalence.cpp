// Policy-equivalence harness: every factory policy on every world of the
// run corpus (tests/run_digest.hpp), with no tolerance to hide behind.
//
//  1. Bit-identical runs: each cell runs three traced variants, the frozen
//     reference (tests/reference_policies.hpp), the optimized policy, and
//     the optimized policy under NoElision (no_elision.hpp), and every
//     variant must match the cell's one recorded row: completions, stats,
//     fault log, schedule and trace, to the bit. The reference anchors the
//     row; a drifting variant names its first difference from it. The
//     workspace reuse, the live-span iteration, the warm-started stretch
//     search and no-op round elision are pure optimizations.
//
//  2. Zero steady-state allocations: after a warm-up call, decide() on an
//     unchanged live set performs no heap allocation at all, for every
//     factory policy (tests/counting_new.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "counting_new.hpp"
#include "no_elision.hpp"
#include "pool_view.hpp"
#include "reference_policies.hpp"
#include "run_digest.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

/// Checks one cell under the default configuration: the reference run
/// against the recorded row, then the optimized policy with elision on and
/// off (the same object, reset by each run) against the reference run.
void expect_cell_matches_row(std::span<const DigestRow> table,
                             const std::string& cell, int world_index,
                             Policy& reference, Policy& optimized) {
  const World world = corpus_world(world_index);
  const Variant want = run_variant(world, reference);
  expect_recorded_run(table, cell, world_digest(world), want);
  expect_same_run(run_variant(world, optimized), want, "optimized");
  NoElision no_elision(optimized);
  expect_same_run(run_variant(world, no_elision), want,
                  "optimized under NoElision");
}

class PolicyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PolicyEquivalence, EveryVariantMatchesTheRecordedRun) {
  const auto& [policy_name, world] = GetParam();
  const auto reference = ref::make_reference_policy(policy_name);
  const auto optimized = make_policy(policy_name);
  expect_cell_matches_row(policy_digests(), cell_name(policy_name, world),
                          world, *reference, *optimized);
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
// recompute_deadlines falls back to the verified stretch. The same three
// variants, with the same config, must match the alpha row.

std::span<const DigestRow> alpha_digests();

std::string alpha_cell_name(double alpha, int world) {
  return std::string(alpha < 1.0 ? "alpha_half" : "alpha_4") + "_world" +
         std::to_string(world);
}

class SsfEdfAlpha
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(SsfEdfAlpha, EveryVariantMatchesTheRecordedRun) {
  const auto& [alpha, world] = GetParam();
  SsfEdfConfig config;
  config.alpha = alpha;
  ref::SsfEdfPolicy reference(config);
  SsfEdfPolicy optimized(config);
  expect_cell_matches_row(alpha_digests(), alpha_cell_name(alpha, world),
                          world, reference, optimized);
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

  EXPECT_EQ(test::allocations_in([&] {
              for (int round = 0; round < 10; ++round) {
                out.clear();
                policy->decide(view, events, out);
              }
            }),
            0U)
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
// Recorded run digests, one row per SsfEdfAlpha cell: {cell, world digest,
// run digest}. A failing check prints its replacement row. The values hold
// for the portable build (see tests/run_digest.hpp); the PolicyEquivalence
// rows are the corpus table there.

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
