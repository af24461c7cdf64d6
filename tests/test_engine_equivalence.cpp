// Randomized engine-equivalence harness: observability and recording are
// pure observers. On the random worlds of the run corpus
// (tests/run_digest.hpp; outages on odd seeds, unannounced faults on most),
// a policy run with schedule recording on/off and tracing on/off must
// produce IDENTICAL results: the fully observed run matches the cell's
// recorded row, and every other variant matches it in all it records —
// completion times to the bit, stats field by field, fault and admission
// logs, interval histories whenever recorded, trace streams whenever
// emitted. Any accidental dependence of the hot path on a recorder, sink
// or counter (e.g. a progress update done only when tracing) breaks this
// suite immediately and exactly, with no tolerance to hide behind.
//
// A second matrix pins no-op round elision under a binding admission cap:
// on vs off must be behaviorally invisible, and each cell's run is
// recorded. Engagement checks prove elision actually fires for the
// policies that opt in. Then come the engine orders no factory policy
// exposes (order gaps) and the batch driver's contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "no_elision.hpp"
#include "obs/trace.hpp"
#include "run_digest.hpp"
#include "sched/factory.hpp"
#include "sched/fixed.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/engine_core.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

/// `full` as a run that recorded only what `record` and `traced` ask for.
Variant recorded_part(Variant full, bool record, bool traced) {
  if (!record) full.result.schedule = Schedule();
  if (!traced) full.trace.clear();
  return full;
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineEquivalence, ObserversDoNotPerturbTheRun) {
  const auto& [policy_name, seed] = GetParam();
  const World world = random_world(seed);
  const auto policy = make_policy(policy_name);

  // The fully observed run is the corpus cell's recorded run.
  const Variant full = run_variant(world, *policy);
  expect_recorded_run(policy_digests(), cell_name(policy_name, seed),
                      world_digest(world), full);
  for (const bool record : {true, false}) {
    for (const bool traced : {true, false}) {
      if (record && traced) continue;
      EngineConfig config;
      config.record_schedule = record;
      expect_same_run(run_variant(world, *policy, config, traced),
                      recorded_part(full, record, traced),
                      std::string(record ? "recorded" : "unrecorded") +
                          (traced ? ", traced" : ", untraced") + " run");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeeds, EngineEquivalence,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "ssf-edf", "fcfs",
                                         "failover-srpt"),
                       ::testing::Range(0, 4)),
    [](const auto& param_info) {
      return cell_name(std::get<0>(param_info.param),
                       std::get<1>(param_info.param));
    });

// ------------------------------------------- hot-path invisibility matrix
//
// No-op round elision must be invisible: each policy run bare and under
// NoElision (no_elision.hpp, which hides its contract) must produce
// byte-identical runs — completions, stats, fault and admission logs,
// interval histories AND trace streams. PolicyEquivalence pins the default
// configuration on every corpus world; here a binding live cap engages
// admission control on the odd seeds, so rejection/shed rounds are part of
// the matrix too.

std::span<const DigestRow> hot_path_digests();

class HotPathEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(HotPathEquivalence, ElisionIsInvisible) {
  const auto& [policy_name, seed] = GetParam();
  const World world = random_world(seed);
  EngineConfig config;
  config.admission.max_live = 10;
  config.admission.rule = AdmissionRule::kRejectHopeless;

  const auto policy = make_policy(policy_name);
  const Variant elided = run_variant(world, *policy, config);
  expect_recorded_run(hot_path_digests(), cell_name(policy_name, seed),
                      world_digest(world), elided);
  NoElision plain(*policy);
  expect_same_run(run_variant(world, plain, config), elided,
                  "run under NoElision");
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesByCappedSeeds, HotPathEquivalence,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "srpt-noreexec", "ssf-edf", "fcfs",
                                         "failover-srpt"),
                       ::testing::Values(1, 3)),
    [](const auto& param_info) {
      return cell_name(std::get<0>(param_info.param),
                       std::get<1>(param_info.param));
    });

// The matrix above proves elision is invisible; these two prove it is not
// vacuous — the contracts actually fire. Factory policies mostly opt out
// (their output depends on remaining work), so the engagement checks use
// the two opted-in shapes: FixedPolicy (kReuseUnlessTriggered) and a
// release-driven policy (kEmptyUnlessTriggered) like the micro-bench's.

/// Runs `policy` (reset first) on a fresh core, recording the schedule,
/// and reports how many rounds the core elided.
Variant run_counting_elisions(const Instance& instance, Policy& policy,
                              std::uint64_t* elided) {
  policy.reset(instance);
  detail::EngineCore core;
  core.prepare(instance, nullptr, policy, EngineConfig{});
  Variant v;
  v.result = core.run();
  *elided = core.elided_rounds();
  return v;
}

TEST(RoundElision, ReuseContractEngagesForFixedAssignments) {
  const Instance instance = random_world(0).instance;  // fault-free
  // Spread jobs over the three clouds: every uplink-done / compute-done
  // round re-arbitrates without a release or membership change, which is
  // exactly the round shape the kReuse contract elides.
  std::vector<int> alloc(instance.jobs.size());
  std::vector<double> priority(instance.jobs.size());
  for (std::size_t i = 0; i < instance.jobs.size(); ++i) {
    alloc[i] = static_cast<int>(i % 3);
    priority[i] = static_cast<double>(i);
  }

  FixedPolicy fixed(alloc, priority);
  NoElision plain(fixed);
  std::uint64_t elided_on = 0;
  std::uint64_t elided_off = 0;
  const Variant on = run_counting_elisions(instance, fixed, &elided_on);
  const Variant off = run_counting_elisions(instance, plain, &elided_off);
  EXPECT_GT(elided_on, 0U) << "reuse elision never engaged";
  EXPECT_EQ(elided_off, 0U) << "elision engaged without a contract";
  expect_same_run(on, off, "elided run");
}

/// Mirrors the micro-bench's sparse-decision policy: directives only at
/// releases, so every release-free round is provably a no-op.
class ReleaseOnlyPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "ReleaseOnly"; }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    (void)view;
    for (const Event& e : events) {
      if (e.kind != EventKind::kRelease) continue;
      out.push_back(Directive{e.job, e.job % 2 == 0 ? kAllocEdge : 0,
                              static_cast<double>(e.job),
                              ReasonCode::kFixedAssignment});
    }
  }

  [[nodiscard]] ElisionContract elision() const override {
    return ElisionContract{ElisionContract::Mode::kEmptyUnlessTriggered,
                           ElisionContract::bit(EventKind::kRelease)};
  }
};

TEST(RoundElision, EmptyContractEngagesForReleaseDrivenPolicy) {
  const Instance instance = random_world(0).instance;  // fault-free
  ReleaseOnlyPolicy release_only;
  NoElision plain(release_only);
  std::uint64_t elided_on = 0;
  std::uint64_t elided_off = 0;
  const Variant on = run_counting_elisions(instance, release_only, &elided_on);
  const Variant off = run_counting_elisions(instance, plain, &elided_off);
  EXPECT_GT(elided_on, 0U) << "empty elision never engaged";
  EXPECT_EQ(elided_off, 0U) << "elision engaged without a contract";
  expect_same_run(on, off, "elided run");
}

// ------------------------------------------------------- engine order gaps
//
// Two engine orders no factory policy exposes in the matrices above: the
// walk over live jobs that received no directive (the implicit keeps), and
// the order in which completions at one instant fire. ReleaseOnlyPolicy
// directs a job only in its release round, so every later round leaves the
// contending jobs to the implicit-keep walk; the tie world releases equal
// jobs together on equal edges, so distinct jobs finish at the same instant.

std::span<const DigestRow> order_gap_digests();

/// Four equal edges and two equal clouds; every batch releases one job per
/// edge with identical amounts, so the jobs of a batch run in lockstep.
World tie_world() {
  World world;
  Instance& instance = world.instance;
  instance.platform = Platform({0.5, 0.5, 0.5, 0.5}, 2);
  JobId id = 0;
  for (int batch = 0; batch < 12; ++batch) {
    for (EdgeId edge = 0; edge < 4; ++edge) {
      Job job;
      job.id = id++;
      job.origin = edge;
      job.work = batch % 3 == 0 ? 2.0 : 1.0;
      job.release = 1.5 * batch;
      job.up = batch % 2 == 0 ? 0.5 : 0.25;
      job.down = 0.25;
      instance.jobs.push_back(job);
    }
  }
  return world;
}

/// Checks `policy`'s traced run of `world` against the cell's row.
void expect_order_gap_row(std::string cell, const World& world,
                          Policy& policy) {
  std::replace(cell.begin(), cell.end(), '-', '_');
  expect_recorded_run(order_gap_digests(), cell, world_digest(world),
                      run_variant(world, policy));
}

/// An overloaded world: at load 1.5 most rounds hold several live jobs
/// that wait for the same edge or cloud, so the order the implicit keeps
/// are walked in decides who gets it.
World contended_world() {
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = 1.5;
  cfg.ccr = 1.0;
  Rng rng(1100);
  return World{make_random_instance(cfg, rng), {}};
}

TEST(OrderGaps, ImplicitKeepWalkIsPinned) {
  ReleaseOnlyPolicy policy;
  for (const int seed : {0, 3}) {  // the fault-free worlds
    expect_order_gap_row("release_only_seed" + std::to_string(seed),
                         random_world(seed), policy);
  }
  expect_order_gap_row("release_only_contended", contended_world(), policy);
}

TEST(OrderGaps, SimultaneousCompletionOrderIsPinned) {
  const World world = tie_world();
  for (const char* name : {"edge-only", "greedy", "srpt", "ssf-edf",
                           "fcfs"}) {
    expect_order_gap_row(std::string("ties_") + name, world,
                         *make_policy(name));
  }
}

// Paths the cells above leave out: ids that run against release order (a
// release lands inside the id-ordered live set instead of after it), and
// policies whose directives, implicit keeps included, do not arrive in
// (priority, id) order.

/// The contended world with its ids permuted by a stride of 7 (coprime
/// with its 150 jobs): in release order the ids climb in runs of 21 or 22
/// and then drop back.
World shuffled_ids_world() {
  World world = contended_world();
  Instance& instance = world.instance;
  const auto n = static_cast<JobId>(instance.jobs.size());
  std::vector<Job> jobs(instance.jobs.size());
  for (const Job& job : instance.jobs) {
    Job moved = job;
    moved.id = job.id * 7 % n;
    jobs[static_cast<std::size_t>(moved.id)] = moved;
  }
  instance.jobs = std::move(jobs);
  return world;
}

/// Directs every live job every round in ascending id order, with a
/// priority that falls by one every three ids: the directives arrive in
/// descending priority, ascending id within a priority.
class DescendingPriorityPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override {
    return "DescendingPriority";
  }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    (void)events;
    const int clouds = view.platform().cloud_count();
    for (const JobId id : view.live_jobs()) {
      int target = kTargetKeep;
      if (view.fields(id).alloc == kAllocUnassigned) {
        target = id % 2 == 0 ? kAllocEdge : (id / 2) % clouds;
      }
      out.push_back(Directive{id, target, -static_cast<double>(id / 3),
                              ReasonCode::kFixedAssignment});
    }
  }
};

/// ReleaseOnlyPolicy with +∞ priorities: a released job's directive ranks
/// with the implicit keeps, which carry smaller ids in a release-ordered
/// world and must still run first.
class InfiniteReleasePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "InfiniteRelease"; }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    (void)view;
    for (const Event& e : events) {
      if (e.kind != EventKind::kRelease) continue;
      out.push_back(Directive{e.job, e.job % 2 == 0 ? kAllocEdge : 0,
                              kTimeInfinity, ReasonCode::kFixedAssignment});
    }
  }
};

TEST(OrderGaps, ShuffledIdsArePinned) {
  const World world = shuffled_ids_world();
  for (const char* name : {"edge-only", "greedy", "srpt", "ssf-edf",
                           "fcfs"}) {
    expect_order_gap_row(std::string("shuffled_ids_") + name, world,
                         *make_policy(name));
  }
}

TEST(OrderGaps, UnrankedDirectivesArePinned) {
  const std::pair<const char*, World> worlds[] = {
      {"contended", contended_world()}, {"shuffled", shuffled_ids_world()}};
  for (const auto& [name, world] : worlds) {
    DescendingPriorityPolicy descending;
    InfiniteReleasePolicy infinite;
    expect_order_gap_row(std::string("descending_priority_") + name, world,
                         descending);
    expect_order_gap_row(std::string("infinite_release_") + name, world,
                         infinite);
  }
}

// ----------------------------------------------------- batched execution
//
// The batch driver's contract: a world's result depends only on its
// (instance, policy, config) triple — never on core reuse, chunked
// stepping, interleaving with other worlds, or which worker ran it.

const std::vector<std::string> kAllPolicies = {
    "edge-only", "greedy", "srpt", "ssf-edf", "fcfs", "failover-srpt"};
constexpr int kSeedCount = 4;

/// A world's untraced simulate() run: what every batched variant matches.
Variant simulated(const World& world, const std::string& policy_name) {
  return run_variant(world, *make_policy(policy_name), EngineConfig{}, false);
}

/// Runs `worlds` on `batch`, world i under policy slot i % policies.
std::vector<Variant> run_batched(BatchEngine& batch,
                                 const std::vector<World>& worlds,
                                 std::size_t policies) {
  std::vector<Variant> out(worlds.size());
  batch.run(
      worlds.size(),
      [&](std::size_t index, Instance& instance, WorldSetup& setup) {
        instance = worlds[index].instance;
        setup.policy = index % policies;
        setup.config = EngineConfig{};
        setup.config.faults = worlds[index].faults;
      },
      [&](std::size_t index, const Instance&, SimResult& result, double) {
        out[index].result = std::move(result);
      });
  return out;
}

TEST(BatchEquivalence, BatchedWorldMatrixMatchesSimulateBitForBit) {
  // Every (policy, seed) cell as a world, on few threads with a tiny
  // rounds_per_visit so worlds genuinely interleave mid-run, against a
  // fresh simulate() per cell.
  std::vector<World> worlds;
  for (int seed = 0; seed < kSeedCount; ++seed) {
    worlds.insert(worlds.end(), kAllPolicies.size(), random_world(seed));
  }
  BatchOptions options;
  options.threads = 3;
  options.worlds_per_thread = 2;
  options.rounds_per_visit = 17;  // deliberately tiny and odd
  BatchEngine batch(
      kAllPolicies.size(),
      [](std::size_t p) { return make_policy(kAllPolicies[p]); }, options);
  const std::vector<Variant> batched =
      run_batched(batch, worlds, kAllPolicies.size());
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    const std::string& policy = kAllPolicies[i % kAllPolicies.size()];
    expect_same_run(batched[i], simulated(worlds[i], policy),
                    "batched " + policy + " seed " +
                        std::to_string(i / kAllPolicies.size()));
  }
}

TEST(BatchEquivalence, InterleavedWorldsOnOneStatefulPolicyStayIsolated) {
  // Regression: a single worker interleaves its two resident worlds in
  // round-robin chunks. Give BOTH worlds the same stateful policy
  // (ssf-edf carries deadlines and a warm-started target stretch across
  // decide() calls) — if the resident slots shared one policy object, the
  // interleaving would bleed one world's search state into the other.
  std::vector<World> worlds;
  for (int seed = 0; seed < kSeedCount; ++seed) {
    worlds.push_back(random_world(seed));
  }
  BatchOptions options;
  options.threads = 1;             // one worker, fully deterministic
  options.worlds_per_thread = 2;   // two interleaved resident worlds
  options.rounds_per_visit = 3;    // swap between them constantly
  BatchEngine batch(
      1, [](std::size_t) { return make_policy("ssf-edf"); }, options);
  const std::vector<Variant> batched = run_batched(batch, worlds, 1);
  for (int seed = 0; seed < kSeedCount; ++seed) {
    expect_same_run(batched[seed], simulated(worlds[seed], "ssf-edf"),
                    "interleaved seed " + std::to_string(seed));
  }
}

TEST(BatchEquivalence, ReusedCoreIsBitIdenticalToFreshCores) {
  // One core and one policy object, prepared over and over across runs
  // with DIFFERENT instances in between (so leftover capacity from a big
  // run faces a small run, and vice versa), versus a fresh core per run.
  detail::EngineCore reused;
  const auto policy = make_policy("srpt");
  for (int seed = 0; seed < kSeedCount; ++seed) {
    const World world = random_world(seed);
    EngineConfig config;
    config.faults = world.faults;
    policy->reset(world.instance);
    reused.prepare(world.instance, nullptr, *policy, config);
    Variant warm;
    warm.result = reused.run();
    expect_same_run(warm, simulated(world, "srpt"),
                    "reused core, seed " + std::to_string(seed));
  }
}

TEST(BatchEquivalence, ChunkSizeOfSteppingNeverAffectsResults) {
  const World world = random_world(1);
  EngineConfig config;
  config.faults = world.faults;
  const Variant whole = simulated(world, "ssf-edf");
  for (const std::uint64_t chunk : {1, 7}) {
    detail::EngineCore core;
    const auto policy = make_policy("ssf-edf");
    policy->reset(world.instance);
    core.prepare(world.instance, nullptr, *policy, config);
    while (!core.step_rounds(chunk)) {
    }
    Variant stepped;
    core.finish_into(stepped.result);
    expect_same_run(stepped, whole,
                    "stepped in chunks of " + std::to_string(chunk));
  }
}

// ---------------------------------------------------------------------------
// Recorded run digests, one row per HotPathEquivalence cell: {cell, world
// digest, run digest}. The run is the default configuration with a live
// cap of 10 (reject-hopeless), traced; the uncapped runs of the same
// worlds are corpus rows (policy_digests). A failing check prints its
// replacement row. The values hold for the portable build (see
// tests/run_digest.hpp).

std::span<const DigestRow> hot_path_digests() {
  static constexpr DigestRow kRows[] = {
      {"edge_only_seed1", 0x213514a4ab09e484, 0x67bb41a4f4dc443c},
      {"edge_only_seed3", 0xb4bda944aee503e1, 0x654f2bd3e9315542},
      {"greedy_seed1", 0x213514a4ab09e484, 0x889eca5c59ed9c51},
      {"greedy_seed3", 0xb4bda944aee503e1, 0xcfd5c6ad52c25a0c},
      {"srpt_seed1", 0x213514a4ab09e484, 0xa5ef998a83acbf0e},
      {"srpt_seed3", 0xb4bda944aee503e1, 0x0a66e7105bc0e45d},
      {"srpt_noreexec_seed1", 0x213514a4ab09e484, 0x00547c9f71291324},
      {"srpt_noreexec_seed3", 0xb4bda944aee503e1, 0xf0ff35f58c4308b2},
      {"ssf_edf_seed1", 0x213514a4ab09e484, 0x928f1eb38f4b8235},
      {"ssf_edf_seed3", 0xb4bda944aee503e1, 0x079cc54352c94927},
      {"fcfs_seed1", 0x213514a4ab09e484, 0x2a37269cfb074b13},
      {"fcfs_seed3", 0xb4bda944aee503e1, 0x6a2da3cf71322085},
      {"failover_srpt_seed1", 0x213514a4ab09e484, 0xac33b1ff4f2cab67},
      {"failover_srpt_seed3", 0xb4bda944aee503e1, 0x0a66e7105bc0e45d},
  };
  return kRows;
}

// Recorded run digests of the order-gap scenarios, traced, default
// configuration.

std::span<const DigestRow> order_gap_digests() {
  static constexpr DigestRow kRows[] = {
      {"release_only_seed0", 0x112d9b428b594f29, 0x1ffa65333b8cc2b4},
      {"release_only_seed3", 0xb4bda944aee503e1, 0xdaf44cf510d047ff},
      {"release_only_contended", 0xdae24d8b24f3ff58, 0xe9db936b89863338},
      {"ties_edge_only", 0x8375e1f5185f62c3, 0xabe61048b7b7b78b},
      {"ties_greedy", 0x8375e1f5185f62c3, 0x660345d41fbae3f5},
      {"ties_srpt", 0x8375e1f5185f62c3, 0x2a0f937fc3ea936b},
      {"ties_ssf_edf", 0x8375e1f5185f62c3, 0xba504c492d3f2c47},
      {"ties_fcfs", 0x8375e1f5185f62c3, 0x37d5c5aa1296b410},
      {"shuffled_ids_edge_only", 0xc24ebfb210f8d3f8, 0x5430258fea77f1c5},
      {"shuffled_ids_greedy", 0xc24ebfb210f8d3f8, 0x81356392d7a925b6},
      {"shuffled_ids_srpt", 0xc24ebfb210f8d3f8, 0xd495dc09ba990fd6},
      {"shuffled_ids_ssf_edf", 0xc24ebfb210f8d3f8, 0x62db2d65f1013c93},
      {"shuffled_ids_fcfs", 0xc24ebfb210f8d3f8, 0x1bc9ac27714436b2},
      {"descending_priority_contended", 0xdae24d8b24f3ff58,
       0x7d802c87445b8c33},
      {"infinite_release_contended", 0xdae24d8b24f3ff58, 0x3d4b0cfa6555ea01},
      {"descending_priority_shuffled", 0xc24ebfb210f8d3f8,
       0x3c5e4f5398261184},
      {"infinite_release_shuffled", 0xc24ebfb210f8d3f8, 0xe08960307c3244c1},
  };
  return kRows;
}

}  // namespace
}  // namespace ecs
