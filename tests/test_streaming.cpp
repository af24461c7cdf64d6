// Streaming-engine suite: on the streaming worlds of the run corpus
// (tests/run_digest.hpp), simulate() and simulate_stream() over the same
// instance are pinned to each cell's recorded row — completions, stats,
// schedules, fault logs and trace streams — across policies x seeds x fault
// plans, and the two runs match in everything but SimStats::peak_tracked.
// On top of that: admission-control semantics (caps hold,
// refused jobs leave no recorded activity, validator and online watchdog
// stay green) and a 1M-job overload soak proving the working set stays
// flat at the admission cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/validate.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "run_digest.hpp"
#include "sched/factory.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

/// simulate_stream() runs over the platform + outage calendar only.
Instance platform_of(const Instance& instance) {
  Instance base;
  base.platform = instance.platform;
  base.cloud_outages = instance.cloud_outages;
  return base;
}

Variant run_streaming(const World& world, Policy& policy,
                      const AdmissionConfig& admission = {}) {
  EngineConfig config;
  config.faults = world.faults;
  config.admission = admission;
  obs::MemoryTraceSink sink;
  config.trace = &sink;
  InstanceArrivalStream arrivals(world.instance);
  Variant v;
  v.result =
      simulate_stream(platform_of(world.instance), arrivals, policy, config);
  v.trace = sink.records();
  return v;
}

std::span<const StreamDigestRow> streaming_digests();

class StreamingEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(StreamingEquivalence, BothFrontDoorsMatchRecordedDigests) {
  const auto& [policy_name, seed] = GetParam();
  const World world = random_world(seed, kStreamingFamily);
  const auto policy = make_policy(policy_name);
  const Variant mat = run_variant(world, *policy);
  const Variant stream = run_streaming(world, *policy);
  expect_recorded_run(streaming_digests(), cell_name(policy_name, seed),
                      world_digest(world), mat, stream);
  // The front doors differ only in peak_tracked, which reads 0 for a run
  // over an in-memory instance.
  EXPECT_EQ(mat.result.stats.peak_tracked, 0U);
  Variant masked = stream;
  masked.result.stats.peak_tracked = 0;
  expect_same_run(masked, mat, "simulate_stream() run");
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeeds, StreamingEquivalence,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "ssf-edf", "fcfs", "failover-srpt"),
                       ::testing::Range(0, 4)),
    [](const auto& param_info) {
      return cell_name(std::get<0>(param_info.param),
                       std::get<1>(param_info.param));
    });

TEST(Streaming, SyntheticFamilyRunsAreDeterministic) {
  ArrivalConfig acfg;
  acfg.family = ArrivalFamily::kBursty;
  acfg.n = 400;
  acfg.rate = 0.5;
  acfg.seed = 11;
  acfg.shape.edge_count = 4;

  RandomInstanceConfig pcfg;
  pcfg.cloud_count = 3;
  pcfg.slow_edges = 2;
  pcfg.fast_edges = 2;
  Instance base;
  base.platform = make_random_platform(pcfg);

  SimStats stats[2];
  for (int round = 0; round < 2; ++round) {
    const auto arrivals = make_arrival_stream(acfg);
    const auto policy = make_policy("srpt");
    stats[round] =
        simulate_stream(base, *arrivals, *policy, EngineConfig{}).stats;
  }
  EXPECT_EQ(stats[0].events, stats[1].events);
  EXPECT_EQ(stats[0].completed, stats[1].completed);
  EXPECT_EQ(stats[0].peak_live, stats[1].peak_live);
  EXPECT_EQ(stats[0].max_stretch, stats[1].max_stretch);
  EXPECT_EQ(stats[0].completed, 400u);
}

// ------------------------------------------------------------- admission

/// A deliberately overloaded instance (load >> capacity) so
/// admission decisions actually fire, while the schedule stays checkable
/// by the validator.
Instance overload_instance(int n = 300) {
  RandomInstanceConfig cfg;
  cfg.n = n;
  cfg.cloud_count = 2;
  cfg.slow_edges = 2;
  cfg.fast_edges = 1;
  cfg.load = 8.0;  // ~8x oversubscribed: sustained overload
  Rng rng(1234);
  return make_random_instance(cfg, rng);
}

std::vector<JobId> refused_ids(const SimResult& result) {
  std::vector<JobId> ids;
  for (const AdmissionRecord& rec : result.admission_log) {
    ids.push_back(rec.job);
  }
  return ids;
}

TEST(Admission, RejectNewestCapsTheLiveSet) {
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.max_live = 16;
  admission.rule = AdmissionRule::kRejectNewest;
  const Variant v =
      run_streaming(World{instance, {}}, *make_policy("srpt"), admission);
  const SimStats& stats = v.result.stats;

  EXPECT_LE(stats.peak_live, 16u);
  EXPECT_GT(stats.rejections, 0u);
  EXPECT_EQ(stats.sheds, 0u);  // reject-newest never evicts residents
  EXPECT_EQ(stats.admitted + stats.rejections,
            static_cast<std::uint64_t>(instance.job_count()));
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(v.result.admission_log.size(), stats.rejections);

  // A refused job never completed and recorded no activity; the validator
  // checks the latter for every refused id.
  for (const AdmissionRecord& rec : v.result.admission_log) {
    EXPECT_FALSE(rec.shed);
    EXPECT_EQ(rec.reason, ReasonCode::kAdmissionQueueFull);
    EXPECT_EQ(v.result.completions[rec.job], -1.0);
  }
  const auto violations = validate_schedule(instance, v.result.schedule,
                                            FaultPlan{}, refused_ids(v.result));
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : to_string(violations.front()));
}

TEST(Admission, ShedInfeasibleEvictsHopelessResidents) {
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.rule = AdmissionRule::kShedInfeasible;
  admission.stretch_limit = 3.0;
  const Variant v =
      run_streaming(World{instance, {}}, *make_policy("fcfs"), admission);
  const SimStats& stats = v.result.stats;

  EXPECT_GT(stats.sheds, 0u);
  EXPECT_EQ(stats.admitted,
            static_cast<std::uint64_t>(instance.job_count()));  // no caps set
  EXPECT_EQ(stats.completed + stats.sheds, stats.admitted);
  for (const AdmissionRecord& rec : v.result.admission_log) {
    EXPECT_TRUE(rec.shed);
    EXPECT_EQ(rec.reason, ReasonCode::kAdmissionDeadlineInfeasible);
    EXPECT_EQ(v.result.completions[rec.job], -1.0);
  }
  const auto violations = validate_schedule(instance, v.result.schedule,
                                            FaultPlan{}, refused_ids(v.result));
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : to_string(violations.front()));
}

TEST(Admission, RejectHopelessPrefersEvictingTheWorstResident) {
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.max_live = 8;
  admission.rule = AdmissionRule::kRejectHopeless;
  const Variant v =
      run_streaming(World{instance, {}}, *make_policy("srpt"), admission);
  const SimStats& stats = v.result.stats;

  EXPECT_LE(stats.peak_live, 8u);
  // Under sustained overload the rule both evicts stale residents and
  // rejects arrivals whose own bound is no better.
  EXPECT_GT(stats.sheds, 0u);
  EXPECT_EQ(stats.admitted + stats.rejections,
            static_cast<std::uint64_t>(instance.job_count()));
  EXPECT_EQ(stats.completed + stats.sheds, stats.admitted);
  const auto violations = validate_schedule(instance, v.result.schedule,
                                            FaultPlan{}, refused_ids(v.result));
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : to_string(violations.front()));
}

TEST(Admission, SimulateHonorsAdmissionToo) {
  // Admission is a property of the engine, not of the front door:
  // simulate() applies the same caps.
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.max_live = 16;
  const auto policy = make_policy("srpt");
  EngineConfig config;
  config.admission = admission;
  const SimResult result = simulate(instance, *policy, config);
  EXPECT_LE(result.stats.peak_live, 16u);
  EXPECT_GT(result.stats.rejections, 0u);
  EXPECT_EQ(result.stats.admitted + result.stats.rejections,
            static_cast<std::uint64_t>(instance.job_count()));
}

TEST(Admission, OnlineWatchdogStaysGreenWithRejections) {
  const Instance instance = overload_instance();
  AdmissionConfig admission;
  admission.max_live = 12;
  admission.rule = AdmissionRule::kRejectHopeless;

  const auto policy = make_policy("srpt");
  EngineConfig config;
  config.admission = admission;
  obs::InvariantWatchdog watchdog;
  config.watchdog = &watchdog;
  InstanceArrivalStream arrivals(instance);
  const Instance base = platform_of(instance);
  const SimResult result =
      simulate_stream(base, arrivals, *policy, config);

  EXPECT_GT(result.stats.rejections + result.stats.sheds, 0u);
  EXPECT_TRUE(watchdog.ok()) << [&] {
    std::ostringstream os;
    watchdog.report(os);
    return os.str();
  }();
}

std::span<const DigestRow> shed_digests();

class SheddingDigests
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SheddingDigests, RunMatchesRecordedDigest) {
  // A shed job's slot is recycled within the same batch, so the arrival
  // that takes it reaches decide() in a slot whose previous occupant the
  // policy saw live in the previous round: policies that key workspaces by
  // slot must tell the two jobs apart.
  const auto& [rule, policy_name] = GetParam();
  AdmissionConfig admission;
  if (rule == "hopeless") {
    admission.max_live = 8;
    admission.rule = AdmissionRule::kRejectHopeless;
  } else {
    admission.rule = AdmissionRule::kShedInfeasible;
    admission.stretch_limit = 3.0;
  }
  const World world{overload_instance(), {}};
  const Variant v = run_streaming(world, *make_policy(policy_name), admission);
  EXPECT_GT(v.result.stats.sheds, 0u);
  std::string cell = rule + "_" + policy_name;
  std::replace(cell.begin(), cell.end(), '-', '_');
  expect_recorded_run(shed_digests(), cell, world_digest(world), v);
}

INSTANTIATE_TEST_SUITE_P(
    RulesByPolicies, SheddingDigests,
    ::testing::Combine(::testing::Values("hopeless", "infeasible"),
                       ::testing::Values("edge-only", "greedy", "srpt",
                                         "ssf-edf", "fcfs")),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param) + "_" +
                         std::get<1>(param_info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ------------------------------------------------- directive-id contract
//
// One rule for both front doors (see Directive): a negative id, or one above
// every released id, throws and names the policy and the id; a released id
// that names no live job (completed, rejected, shed) is ignored.

/// SRPT plus one extra directive per round for a chosen job id.
class ExtraDirectivePolicy final : public Policy {
 public:
  explicit ExtraDirectivePolicy(JobId extra) : extra_(extra) {}
  [[nodiscard]] std::string name() const override { return "extra"; }
  void reset(const Instance& instance) override { base_->reset(instance); }
  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    base_->decide(view, events, out);
    out.push_back(Directive{extra_, kAllocEdge, 0.0});
  }

 private:
  std::unique_ptr<Policy> base_ = make_policy("srpt");
  JobId extra_;
};

/// SRPT, plus an edge directive of top priority for every id up to the
/// largest released one that is not live: every completed and every
/// rejected job, every round.
class StaleDirectivePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "stale"; }
  void reset(const Instance& instance) override {
    base_->reset(instance);
    max_released_ = -1;
  }
  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    base_->decide(view, events, out);
    for (const Event& e : events) {
      if (e.kind == EventKind::kRelease) {
        max_released_ = std::max(max_released_, e.job);
      }
    }
    const std::span<const JobId> live = view.live_jobs();
    for (JobId id = 0; id <= max_released_; ++id) {
      if (!std::binary_search(live.begin(), live.end(), id)) {
        out.push_back(Directive{id, kAllocEdge, -1.0});
      }
    }
  }

 private:
  std::unique_ptr<Policy> base_ = make_policy("srpt");
  JobId max_released_ = -1;
};

/// Runs `policy` through simulate() (stream = false) or simulate_stream()
/// over the same instance.
SimResult run_front_door(const Instance& instance, Policy& policy,
                         bool stream, const EngineConfig& config = {}) {
  if (!stream) return simulate(instance, policy, config);
  InstanceArrivalStream arrivals(instance);
  return simulate_stream(platform_of(instance), arrivals, policy, config);
}

std::string error_of(const Instance& instance, Policy& policy, bool stream) {
  try {
    (void)run_front_door(instance, policy, stream);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(DirectiveContract, NegativeIdThrowsThroughBothFrontDoors) {
  const Instance instance = random_world(0, kStreamingFamily).instance;
  for (const bool stream : {false, true}) {
    ExtraDirectivePolicy policy(-1);
    const std::string what = error_of(instance, policy, stream);
    EXPECT_NE(what.find("policy extra issued a directive for unknown job -1"),
              std::string::npos)
        << (stream ? "simulate_stream: " : "simulate: ") << what;
  }
}

TEST(DirectiveContract, NeverReleasedIdThrowsThroughBothFrontDoors) {
  const Instance instance = random_world(0, kStreamingFamily).instance;
  // Past the last job of the instance: no release ever names it.
  const JobId unknown = instance.job_count() + 7;
  for (const bool stream : {false, true}) {
    ExtraDirectivePolicy policy(unknown);
    const std::string what = error_of(instance, policy, stream);
    EXPECT_NE(what.find("policy extra issued a directive for unknown job " +
                        std::to_string(unknown)),
              std::string::npos)
        << (stream ? "simulate_stream: " : "simulate: ") << what;
  }
}

TEST(DirectiveContract, CompletedAndRejectedIdsAreIgnored) {
  const Instance instance = overload_instance();
  EngineConfig config;
  config.admission.max_live = 16;
  config.admission.rule = AdmissionRule::kRejectNewest;
  // Untraced: the per-round kDecision instant counts the directives, stale
  // ones included; everything the digest covers must be unchanged.
  for (const bool stream : {false, true}) {
    SCOPED_TRACE(stream ? "simulate_stream" : "simulate");
    const auto plain_policy = make_policy("srpt");
    StaleDirectivePolicy stale_policy;
    const SimResult plain =
        run_front_door(instance, *plain_policy, stream, config);
    const SimResult stale =
        run_front_door(instance, stale_policy, stream, config);
    ASSERT_GT(plain.stats.rejections, 0U);
    ASSERT_GT(plain.stats.completed, 0U);
    expect_same_run(Variant{stale, {}}, Variant{plain, {}},
                    "run with stale directives");
  }
}

// ---------------------------------------------------- adversarial churn

/// One enormous job released first, then a long train of tiny jobs that
/// each complete while it is still running. Completions therefore happen
/// maximally out of release order: id 0 outlives ids 1..n-1. The engine's
/// id -> slot map must track the COUNT of live ids — a map keyed on the id
/// span (everything from the oldest live id up) would hold ~n entries here
/// and the working set would grow linearly with the stream length.
Instance churn_instance(int n) {
  RandomInstanceConfig pcfg;
  pcfg.cloud_count = 2;
  pcfg.slow_edges = 1;
  pcfg.fast_edges = 1;
  Instance instance;
  instance.platform = make_random_platform(pcfg);

  Job big;
  big.id = 0;
  big.origin = 0;
  big.work = 1.0e5;  // outlives every small job below
  big.release = 0.0;
  instance.jobs.push_back(big);
  for (int i = 1; i < n; ++i) {
    Job small;
    small.id = i;
    small.origin = 1;
    small.work = 1.0;
    // Spaced far enough apart that each one is done (at any processor
    // speed of the platform) before the next arrives: the live set is the
    // big job plus at most a couple of small ones, forever.
    small.release = static_cast<Time>(i) * 25.0;
    instance.jobs.push_back(small);
  }
  return instance;
}

TEST(StreamingChurn, OutOfReleaseOrderCompletionsKeepTrackedSetFlat) {
  SimStats at[2];
  const int sizes[2] = {500, 5000};
  for (int round = 0; round < 2; ++round) {
    const Instance instance = churn_instance(sizes[round]);
    const auto policy = make_policy("srpt");
    EngineConfig config;
    config.record_schedule = false;
    config.record_completions = false;
    InstanceArrivalStream arrivals(instance);
    const Instance base = platform_of(instance);
    at[round] = simulate_stream(base, arrivals, *policy, config).stats;

    EXPECT_EQ(at[round].completed, static_cast<std::uint64_t>(sizes[round]));
    EXPECT_LE(at[round].peak_live, 4u) << "n = " << sizes[round];
    // The regression assertion: tracked ids stay within a retire-queue's
    // breadth of the live set, not of the stream.
    EXPECT_LE(at[round].peak_tracked, at[round].peak_live + 2)
        << "n = " << sizes[round];
  }
  // Flat means flat: 10x the stream length, identical high-water mark.
  EXPECT_EQ(at[0].peak_tracked, at[1].peak_tracked);
}

// ------------------------------------------------------------------ soak

TEST(StreamingSoak, MillionJobOverloadKeepsTheWorkingSetFlat) {
  // 1M Poisson arrivals at ~5x the platform's service rate, with faults,
  // admission and the online watchdog all on. Memory must be a function of
  // the admission cap, never of n: peak_live stays at the cap, and the
  // engine's slot table (schedule/completions recording off) never grows
  // past it.
  ArrivalConfig acfg;
  acfg.n = 1'000'000;
  acfg.family = ArrivalFamily::kPoisson;
  acfg.rate = 2.0;
  acfg.seed = 99;
  acfg.shape.edge_count = 4;

  RandomInstanceConfig pcfg;
  pcfg.cloud_count = 3;
  pcfg.slow_edges = 2;
  pcfg.fast_edges = 2;
  Instance base;
  base.platform = make_random_platform(pcfg);

  FaultConfig fault_cfg;
  fault_cfg.crash_rate = 0.0005;
  fault_cfg.mean_repair = 25.0;
  fault_cfg.loss_rate = 0.001;
  fault_cfg.horizon = 5000.0;
  Rng fault_rng(4321);

  EngineConfig config;
  config.record_schedule = false;
  config.record_completions = false;
  config.record_admission = false;
  config.faults = make_fault_plan(pcfg.cloud_count, fault_cfg, fault_rng);
  config.admission.max_live = 64;
  config.admission.rule = AdmissionRule::kRejectNewest;
  obs::InvariantWatchdog watchdog;
  config.watchdog = &watchdog;

  const auto arrivals = make_arrival_stream(acfg);
  const auto policy = make_policy("srpt");
  const SimResult result =
      simulate_stream(base, *arrivals, *policy, config);
  const SimStats& stats = result.stats;

  EXPECT_EQ(stats.admitted + stats.rejections, 1'000'000u);
  EXPECT_GT(stats.rejections, 0u);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_LE(stats.peak_live, 64u);
  EXPECT_GT(stats.peak_live, 0u);
  EXPECT_TRUE(watchdog.ok()) << watchdog.violation_count();
  // Nothing was recorded, so the result carriers must be empty.
  EXPECT_EQ(result.schedule.job_count(), 0);
  EXPECT_TRUE(result.completions.empty());
  EXPECT_TRUE(result.admission_log.empty());
}

// ---------------------------------------------------------------------------
// Recorded run digests, one row per StreamingEquivalence cell: {cell, world
// digest, simulate() run digest, simulate_stream() run digest}. Both runs
// are traced with the default configuration; the two digests differ only
// through SimStats::peak_tracked, which reads 0 for simulate(). The values
// hold for the portable build (see tests/run_digest.hpp).

std::span<const StreamDigestRow> streaming_digests() {
  static constexpr StreamDigestRow kRows[] = {
      {"edge_only_seed0", 0x7ac085864f0f2a74, 0xa0a25f392552c724,
       0x4a2687dbc0180a94},
      {"edge_only_seed1", 0x3400a528600d80d7, 0xd078ba39badd674b,
       0x275a4c7935618614},
      {"edge_only_seed2", 0xcfa1803f7377dcf8, 0xbf139859255a1b7a,
       0x6165e690f95c72c7},
      {"edge_only_seed3", 0x1f323cb346f18663, 0xb019e85f5be99074,
       0xf6b193e319c7ccea},
      {"greedy_seed0", 0x7ac085864f0f2a74, 0x0bd48478f8547e2f,
       0x382321e7efffd8f8},
      {"greedy_seed1", 0x3400a528600d80d7, 0x0de2a831fd2cda43,
       0xfa0be2220887f20a},
      {"greedy_seed2", 0xcfa1803f7377dcf8, 0x4bb2dadcbab0490b,
       0x63dac4759e968f6e},
      {"greedy_seed3", 0x1f323cb346f18663, 0x7c1a7876e9bd3c2b,
       0x5f87dbcb5d1627b5},
      {"srpt_seed0", 0x7ac085864f0f2a74, 0xfd32cd80ee2f9267,
       0x57cb5b083e98adf8},
      {"srpt_seed1", 0x3400a528600d80d7, 0x53f7087d843c3827,
       0x480c1cdbad4e2e0b},
      {"srpt_seed2", 0xcfa1803f7377dcf8, 0x436c57c0d5a958ba,
       0x68b0819d32a3185b},
      {"srpt_seed3", 0x1f323cb346f18663, 0x2964b42a7570968d,
       0xaf7c8cd55d2bd653},
      {"ssf_edf_seed0", 0x7ac085864f0f2a74, 0xb1e772ea7e1b62b8,
       0x617b77ed2fa1792f},
      {"ssf_edf_seed1", 0x3400a528600d80d7, 0x5b8b70e0c6103f4a,
       0x38e89d28399604f7},
      {"ssf_edf_seed2", 0xcfa1803f7377dcf8, 0x3c84368e3e7c6f5e,
       0xb7c96fe2e174804b},
      {"ssf_edf_seed3", 0x1f323cb346f18663, 0xf0eb2c060615576e,
       0xb55f421dcbab3c7f},
      {"fcfs_seed0", 0x7ac085864f0f2a74, 0xd4c069dbab073365,
       0x1fcbf9a195d94caa},
      {"fcfs_seed1", 0x3400a528600d80d7, 0x1a15f4d57e11ddf9,
       0x40010316955491c7},
      {"fcfs_seed2", 0xcfa1803f7377dcf8, 0x4ce394d379999855,
       0x5c3ae66f668c7c1c},
      {"fcfs_seed3", 0x1f323cb346f18663, 0xcce996246738527f,
       0xbf16343ea6445e00},
      {"failover_srpt_seed0", 0x7ac085864f0f2a74, 0xfd32cd80ee2f9267,
       0x57cb5b083e98adf8},
      {"failover_srpt_seed1", 0x3400a528600d80d7, 0xcd187cf0fae08fe4,
       0x08f668a8146a34e9},
      {"failover_srpt_seed2", 0xcfa1803f7377dcf8, 0x948099ba19d2a2e5,
       0x32d461a23f92d6d4},
      {"failover_srpt_seed3", 0x1f323cb346f18663, 0x2964b42a7570968d,
       0xaf7c8cd55d2bd653},
  };
  return kRows;
}

// Recorded run digests, one row per SheddingDigests cell:
// {rule_policy, world digest, simulate_stream() run digest}.

std::span<const DigestRow> shed_digests() {
  static constexpr DigestRow kRows[] = {
      {"hopeless_edge_only", 0x1873e8fecc278c45, 0x2aa56705c27fe48e},
      {"hopeless_greedy", 0x1873e8fecc278c45, 0x68d531b751689b5d},
      {"hopeless_srpt", 0x1873e8fecc278c45, 0xcf92fbb480f9f7dc},
      {"hopeless_ssf_edf", 0x1873e8fecc278c45, 0x21c059d39b600720},
      {"hopeless_fcfs", 0x1873e8fecc278c45, 0xa13a59e7beb23d45},
      {"infeasible_edge_only", 0x1873e8fecc278c45, 0x996789f4b34fd3e7},
      {"infeasible_greedy", 0x1873e8fecc278c45, 0x89a4faab55125493},
      {"infeasible_srpt", 0x1873e8fecc278c45, 0x5f57792cba706b8c},
      {"infeasible_ssf_edf", 0x1873e8fecc278c45, 0x94f2f9e10403ce32},
      {"infeasible_fcfs", 0x1873e8fecc278c45, 0x71f8e0baf67b7a52},
  };
  return kRows;
}

}  // namespace
}  // namespace ecs
