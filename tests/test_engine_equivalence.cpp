// Randomized engine-equivalence harness: observability and recording are
// pure observers. For random instances (with outages and unannounced
// faults), running the same policy with schedule recording on/off and
// tracing on/off must produce IDENTICAL results — completion times exact to
// the bit, stats equal field by field, interval histories equal whenever
// they are recorded, and trace streams equal whenever they are emitted.
//
// This pins the active-set engine core against observer effects: any
// accidental dependence of the hot path on a recorder, sink or counter
// (e.g. a progress update done only when tracing) breaks this suite
// immediately and exactly, with no tolerance to hide behind.
//
// A second matrix pins no-op round elision the same way: on vs off must be
// behaviorally invisible — plus engagement checks proving elision actually
// fires for the policies that opt in — and records each cell's run digest.
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
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

struct Variant {
  SimResult result;
  std::vector<obs::TraceRecord> trace;
};

Variant run_variant(const Instance& instance, const std::string& policy_name,
                    const FaultPlan& faults, bool record, bool traced) {
  const auto policy = make_policy(policy_name);
  EngineConfig config;
  config.record_schedule = record;
  config.faults = faults;
  obs::MemoryTraceSink sink;
  if (traced) config.trace = &sink;
  Variant v;
  v.result = simulate(instance, *policy, config);
  v.trace = sink.records();
  return v;
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

/// The randomized scenario of the equivalence matrix: outage calendars on
/// odd seeds, unannounced fault plans on most, varying load and CCR.
Instance equivalence_instance(int seed, FaultPlan* faults) {
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = seed % 2 == 0 ? 0.1 : 0.3;
  cfg.ccr = seed % 3 == 0 ? 5.0 : 1.0;
  Rng rng(1000 + seed);
  Instance instance = make_random_instance(cfg, rng);

  if (seed % 2 == 1) {  // announced outage windows on odd seeds
    OutageConfig outage_cfg;
    outage_cfg.fraction = 0.1;
    outage_cfg.mean_duration = 10.0;
    outage_cfg.horizon = 500.0;
    Rng outage_rng(2000 + seed);
    instance.cloud_outages =
        make_cloud_outages(cfg.cloud_count, outage_cfg, outage_rng);
  }

  if (seed % 3 != 0) {  // unannounced crashes + losses on most seeds
    FaultConfig fault_cfg;
    fault_cfg.crash_rate = 0.002;
    fault_cfg.mean_repair = 20.0;
    fault_cfg.loss_rate = 0.005;
    fault_cfg.horizon = 500.0;
    Rng fault_rng(3000 + seed);
    *faults = make_fault_plan(cfg.cloud_count, fault_cfg, fault_rng);
  }
  return instance;
}

/// Completions + stats + fault log + schedule, exact.
void expect_same_result(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i], b.completions[i]) << "job " << i;
  }
  expect_same_stats(a.stats, b.stats);
  expect_same_fault_log(a.fault_log, b.fault_log);
  expect_same_schedule(a.schedule, b.schedule);
}

/// "edge-only", 3 -> "edge_only_seed3": test and digest-table cell names.
std::string cell_name(std::string policy_name, int seed) {
  for (char& c : policy_name) {
    if (c == '-') c = '_';
  }
  return policy_name + "_seed" + std::to_string(seed);
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineEquivalence, ObserversDoNotPerturbTheRun) {
  const auto& [policy_name, seed] = GetParam();
  FaultPlan faults;
  const Instance instance = equivalence_instance(seed, &faults);

  const Variant rec_traced =
      run_variant(instance, policy_name, faults, true, true);
  const Variant rec_plain =
      run_variant(instance, policy_name, faults, true, false);
  const Variant bare_traced =
      run_variant(instance, policy_name, faults, false, true);
  const Variant bare_plain =
      run_variant(instance, policy_name, faults, false, false);

  // Completion times: exact equality against the fully-instrumented run.
  for (const Variant* v : {&rec_plain, &bare_traced, &bare_plain}) {
    ASSERT_EQ(v->result.completions.size(),
              rec_traced.result.completions.size());
    for (std::size_t i = 0; i < v->result.completions.size(); ++i) {
      EXPECT_EQ(v->result.completions[i], rec_traced.result.completions[i])
          << "job " << i;
    }
    expect_same_stats(v->result.stats, rec_traced.result.stats);
    expect_same_fault_log(v->result.fault_log, rec_traced.result.fault_log);
  }

  // Interval histories: identical whenever recorded.
  expect_same_schedule(rec_traced.result.schedule, rec_plain.result.schedule);

  // Trace streams: identical whenever emitted (recording is invisible).
  ASSERT_EQ(rec_traced.trace.size(), bare_traced.trace.size());
  for (std::size_t i = 0; i < rec_traced.trace.size(); ++i) {
    EXPECT_EQ(rec_traced.trace[i], bare_traced.trace[i]) << "record " << i;
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
// byte-identical runs — completions, stats, fault logs, interval histories
// AND trace streams — on the same randomized workloads (outages on odd
// seeds, unannounced faults on most), with admission control engaged on
// odd seeds so rejection/shed rounds are part of the matrix too.

Variant run_mode_variant(const Instance& instance,
                         const std::string& policy_name,
                         const FaultPlan& faults, int seed, bool elide) {
  const auto policy = make_policy(policy_name);
  NoElision plain(*policy);
  EngineConfig config;
  config.record_schedule = true;
  config.faults = faults;
  if (seed % 2 == 1) {  // a binding live cap on the higher-load seeds
    config.admission.max_live = 10;
    config.admission.rule = AdmissionRule::kRejectHopeless;
  }
  obs::MemoryTraceSink sink;
  config.trace = &sink;
  Variant v;
  v.result = simulate(instance, elide ? *policy : plain, config);
  v.trace = sink.records();
  return v;
}

std::span<const DigestRow> hot_path_digests();

class HotPathEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(HotPathEquivalence, ElisionIsInvisible) {
  const auto& [policy_name, seed] = GetParam();
  FaultPlan faults;
  const Instance instance = equivalence_instance(seed, &faults);

  const Variant elided =
      run_mode_variant(instance, policy_name, faults, seed, true);
  const Variant plain =
      run_mode_variant(instance, policy_name, faults, seed, false);

  expect_same_result(plain.result, elided.result);
  ASSERT_EQ(plain.trace.size(), elided.trace.size());
  for (std::size_t i = 0; i < plain.trace.size(); ++i) {
    EXPECT_EQ(plain.trace[i], elided.trace[i]) << "record " << i;
  }
  expect_recorded_digest(hot_path_digests(), cell_name(policy_name, seed),
                         world_digest(instance, faults),
                         run_digest(elided.result, elided.trace));
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesBySeeds, HotPathEquivalence,
    ::testing::Combine(::testing::Values("edge-only", "greedy", "srpt",
                                         "srpt-noreexec", "ssf-edf", "fcfs",
                                         "failover-srpt"),
                       ::testing::Range(0, 4)),
    [](const auto& param_info) {
      return cell_name(std::get<0>(param_info.param),
                       std::get<1>(param_info.param));
    });

// The matrix above proves elision is invisible; these two prove it is not
// vacuous — the contracts actually fire. Factory policies mostly opt out
// (their output depends on remaining work), so the engagement checks use
// the two opted-in shapes: FixedPolicy (kReuseUnlessTriggered) and a
// release-driven policy (kEmptyUnlessTriggered) like the micro-bench's.

TEST(RoundElision, ReuseContractEngagesForFixedAssignments) {
  FaultPlan faults;
  const Instance instance = equivalence_instance(0, &faults);  // fault-free
  // Spread jobs over the three clouds: every uplink-done / compute-done
  // round re-arbitrates without a release or membership change, which is
  // exactly the round shape the kReuse contract elides.
  std::vector<int> alloc(instance.jobs.size());
  std::vector<double> priority(instance.jobs.size());
  for (std::size_t i = 0; i < instance.jobs.size(); ++i) {
    alloc[i] = static_cast<int>(i % 3);
    priority[i] = static_cast<double>(i);
  }

  auto run_with = [&](bool elide, std::uint64_t* elided) {
    FixedPolicy fixed(alloc, priority);
    NoElision plain(fixed);
    Policy& policy = elide ? static_cast<Policy&>(fixed) : plain;
    EngineConfig config;
    config.record_schedule = true;
    policy.reset(instance);
    detail::EngineCore core;
    core.prepare(instance, nullptr, policy, config);
    SimResult result = core.run();
    *elided = core.elided_rounds();
    return result;
  };

  std::uint64_t elided_on = 0;
  std::uint64_t elided_off = 0;
  const SimResult on = run_with(true, &elided_on);
  const SimResult off = run_with(false, &elided_off);
  EXPECT_GT(elided_on, 0U) << "reuse elision never engaged";
  EXPECT_EQ(elided_off, 0U) << "elision engaged without a contract";
  expect_same_result(on, off);
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
  FaultPlan faults;
  const Instance instance = equivalence_instance(0, &faults);  // fault-free

  auto run_with = [&](bool elide, std::uint64_t* elided) {
    ReleaseOnlyPolicy release_only;
    NoElision plain(release_only);
    Policy& policy = elide ? static_cast<Policy&>(release_only) : plain;
    EngineConfig config;
    config.record_schedule = true;
    policy.reset(instance);
    detail::EngineCore core;
    core.prepare(instance, nullptr, policy, config);
    SimResult result = core.run();
    *elided = core.elided_rounds();
    return result;
  };

  std::uint64_t elided_on = 0;
  std::uint64_t elided_off = 0;
  const SimResult on = run_with(true, &elided_on);
  const SimResult off = run_with(false, &elided_off);
  EXPECT_GT(elided_on, 0U) << "empty elision never engaged";
  EXPECT_EQ(elided_off, 0U) << "elision engaged without a contract";
  expect_same_result(on, off);
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
Instance tie_instance() {
  Instance instance;
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
  return instance;
}

Variant run_traced(const Instance& instance, Policy& policy) {
  EngineConfig config;
  obs::MemoryTraceSink sink;
  config.trace = &sink;
  Variant v;
  v.result = simulate(instance, policy, config);
  v.trace = sink.records();
  return v;
}

/// An overloaded world: at load 1.5 most rounds hold several live jobs
/// that wait for the same edge or cloud, so the order the implicit keeps
/// are walked in decides who gets it.
Instance contended_instance() {
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = 1.5;
  cfg.ccr = 1.0;
  Rng rng(1100);
  return make_random_instance(cfg, rng);
}

TEST(OrderGaps, ImplicitKeepWalkIsPinned) {
  for (const int seed : {0, 3}) {  // the fault-free worlds
    FaultPlan faults;
    const Instance instance = equivalence_instance(seed, &faults);
    ReleaseOnlyPolicy policy;
    const Variant v = run_traced(instance, policy);
    expect_recorded_digest(order_gap_digests(),
                           "release_only_seed" + std::to_string(seed),
                           world_digest(instance, faults),
                           run_digest(v.result, v.trace));
  }
  const Instance instance = contended_instance();
  ReleaseOnlyPolicy policy;
  const Variant v = run_traced(instance, policy);
  expect_recorded_digest(order_gap_digests(), "release_only_contended",
                         world_digest(instance, FaultPlan{}),
                         run_digest(v.result, v.trace));
}

TEST(OrderGaps, SimultaneousCompletionOrderIsPinned) {
  const Instance instance = tie_instance();
  for (const char* name : {"edge-only", "greedy", "srpt", "ssf-edf",
                           "fcfs"}) {
    const auto policy = make_policy(name);
    const Variant v = run_traced(instance, *policy);
    std::string cell = std::string("ties_") + name;
    std::replace(cell.begin(), cell.end(), '-', '_');
    expect_recorded_digest(order_gap_digests(), cell,
                           world_digest(instance, FaultPlan{}),
                           run_digest(v.result, v.trace));
  }
}

// Paths the cells above leave out: ids that run against release order (a
// release lands inside the id-ordered live set instead of after it), and
// policies whose directives, implicit keeps included, do not arrive in
// (priority, id) order.

/// The contended world with its ids permuted by a stride of 7 (coprime
/// with its 150 jobs): in release order the ids climb in runs of 21 or 22
/// and then drop back.
Instance shuffled_ids_instance() {
  Instance instance = contended_instance();
  const auto n = static_cast<JobId>(instance.jobs.size());
  std::vector<Job> jobs(instance.jobs.size());
  for (const Job& job : instance.jobs) {
    Job moved = job;
    moved.id = job.id * 7 % n;
    jobs[static_cast<std::size_t>(moved.id)] = moved;
  }
  instance.jobs = std::move(jobs);
  return instance;
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
  const Instance instance = shuffled_ids_instance();
  for (const char* name : {"edge-only", "greedy", "srpt", "ssf-edf",
                           "fcfs"}) {
    const auto policy = make_policy(name);
    const Variant v = run_traced(instance, *policy);
    std::string cell = std::string("shuffled_ids_") + name;
    std::replace(cell.begin(), cell.end(), '-', '_');
    expect_recorded_digest(order_gap_digests(), cell,
                           world_digest(instance, FaultPlan{}),
                           run_digest(v.result, v.trace));
  }
}

TEST(OrderGaps, UnrankedDirectivesArePinned) {
  const std::pair<const char*, Instance> worlds[] = {
      {"contended", contended_instance()},
      {"shuffled", shuffled_ids_instance()}};
  for (const auto& [world, instance] : worlds) {
    DescendingPriorityPolicy descending;
    InfiniteReleasePolicy infinite;
    for (Policy* policy : {static_cast<Policy*>(&descending),
                           static_cast<Policy*>(&infinite)}) {
      const Variant v = run_traced(instance, *policy);
      const std::string cell = std::string(policy == &descending
                                               ? "descending_priority_"
                                               : "infinite_release_") +
                               world;
      expect_recorded_digest(order_gap_digests(), cell,
                             world_digest(instance, FaultPlan{}),
                             run_digest(v.result, v.trace));
    }
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

TEST(BatchEquivalence, BatchedWorldMatrixMatchesSimulateBitForBit) {
  // Every (policy, seed) cell as a world, on few threads with a tiny
  // rounds_per_visit so worlds genuinely interleave mid-run, against a
  // fresh simulate() per cell.
  struct Cell {
    Instance instance;
    FaultPlan faults;
    SimResult batched;
  };
  std::vector<Cell> cells(kAllPolicies.size() * kSeedCount);
  for (int seed = 0; seed < kSeedCount; ++seed) {
    for (std::size_t p = 0; p < kAllPolicies.size(); ++p) {
      Cell& cell = cells[seed * kAllPolicies.size() + p];
      cell.instance = equivalence_instance(seed, &cell.faults);
    }
  }

  BatchOptions options;
  options.threads = 3;
  options.worlds_per_thread = 2;
  options.rounds_per_visit = 17;  // deliberately tiny and odd
  BatchEngine batch(
      kAllPolicies.size(),
      [](std::size_t p) { return make_policy(kAllPolicies[p]); }, options);
  batch.run(
      cells.size(),
      [&](std::size_t index, Instance& instance, WorldSetup& setup) {
        instance = cells[index].instance;
        setup.policy = index % kAllPolicies.size();
        setup.config = EngineConfig{};
        setup.config.record_schedule = true;
        setup.config.faults = cells[index].faults;
      },
      [&](std::size_t index, const Instance&, SimResult& result, double) {
        cells[index].batched = std::move(result);
      });

  for (int seed = 0; seed < kSeedCount; ++seed) {
    for (std::size_t p = 0; p < kAllPolicies.size(); ++p) {
      const Cell& cell = cells[seed * kAllPolicies.size() + p];
      const auto policy = make_policy(kAllPolicies[p]);
      EngineConfig config;
      config.record_schedule = true;
      config.faults = cell.faults;
      const SimResult reference = simulate(cell.instance, *policy, config);
      SCOPED_TRACE(kAllPolicies[p] + " seed " + std::to_string(seed));
      expect_same_result(cell.batched, reference);
    }
  }
}

TEST(BatchEquivalence, InterleavedWorldsOnOneStatefulPolicyStayIsolated) {
  // Regression: a single worker interleaves its two resident worlds in
  // round-robin chunks. Give BOTH worlds the same stateful policy
  // (ssf-edf carries deadlines and a warm-started target stretch across
  // decide() calls) — if the resident slots shared one policy object, the
  // interleaving would bleed one world's search state into the other.
  struct Cell {
    Instance instance;
    FaultPlan faults;
    SimResult batched;
  };
  std::vector<Cell> cells(kSeedCount);
  for (int seed = 0; seed < kSeedCount; ++seed) {
    cells[seed].instance = equivalence_instance(seed, &cells[seed].faults);
  }

  BatchOptions options;
  options.threads = 1;             // one worker, fully deterministic
  options.worlds_per_thread = 2;   // two interleaved resident worlds
  options.rounds_per_visit = 3;    // swap between them constantly
  BatchEngine batch(
      1, [](std::size_t) { return make_policy("ssf-edf"); }, options);
  batch.run(
      cells.size(),
      [&](std::size_t index, Instance& instance, WorldSetup& setup) {
        instance = cells[index].instance;
        setup.config.record_schedule = true;
        setup.config.faults = cells[index].faults;
      },
      [&](std::size_t index, const Instance&, SimResult& result, double) {
        cells[index].batched = std::move(result);
      });

  for (int seed = 0; seed < kSeedCount; ++seed) {
    const auto policy = make_policy("ssf-edf");
    EngineConfig config;
    config.record_schedule = true;
    config.faults = cells[seed].faults;
    const SimResult reference =
        simulate(cells[seed].instance, *policy, config);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_result(cells[seed].batched, reference);
  }
}

TEST(BatchEquivalence, ReusedCoreIsBitIdenticalToFreshCores) {
  // One core and one policy object, prepared over and over across runs
  // with DIFFERENT instances in between (so leftover capacity from a big
  // run faces a small run, and vice versa), versus a fresh core per run.
  detail::EngineCore reused;
  const auto policy = make_policy("srpt");
  for (int seed = 0; seed < kSeedCount; ++seed) {
    FaultPlan faults;
    const Instance instance = equivalence_instance(seed, &faults);
    EngineConfig config;
    config.record_schedule = true;
    config.faults = faults;

    policy->reset(instance);
    reused.prepare(instance, nullptr, *policy, config);
    const SimResult warm = reused.run();

    detail::EngineCore fresh;
    const auto fresh_policy = make_policy("srpt");
    fresh_policy->reset(instance);
    fresh.prepare(instance, nullptr, *fresh_policy, config);
    const SimResult cold = fresh.run();

    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_result(warm, cold);
  }
}

TEST(BatchEquivalence, ChunkSizeOfSteppingNeverAffectsResults) {
  FaultPlan faults;
  const Instance instance = equivalence_instance(1, &faults);
  EngineConfig config;
  config.record_schedule = true;
  config.faults = faults;

  SimResult results[3];
  const std::uint64_t chunks[3] = {1, 7, 0};  // 0 = run to completion
  for (int i = 0; i < 3; ++i) {
    detail::EngineCore core;
    const auto policy = make_policy("ssf-edf");
    policy->reset(instance);
    core.prepare(instance, nullptr, *policy, config);
    if (chunks[i] == 0) {
      results[i] = core.run();
    } else {
      while (!core.step_rounds(chunks[i])) {
      }
      core.finish_into(results[i]);
    }
  }
  expect_same_result(results[0], results[2]);
  expect_same_result(results[1], results[2]);
}

// ---------------------------------------------------------------------------
// Recorded run digests, one row per HotPathEquivalence cell: {cell, world
// digest, run digest}. The run is the default configuration with the live
// cap of odd seeds, traced. A failing check prints its replacement row. The
// values hold for the portable build (see tests/run_digest.hpp).

std::span<const DigestRow> hot_path_digests() {
  static constexpr DigestRow kRows[] = {
      {"edge_only_seed0", 0x112d9b428b594f29, 0xe4bfe02c63104afa},
      {"edge_only_seed1", 0x213514a4ab09e484, 0x67bb41a4f4dc443c},
      {"edge_only_seed2", 0x061db414eab6130a, 0xd5cfe6259ede6597},
      {"edge_only_seed3", 0xb4bda944aee503e1, 0x654f2bd3e9315542},
      {"greedy_seed0", 0x112d9b428b594f29, 0x9b9f2ce2b0ad2e1a},
      {"greedy_seed1", 0x213514a4ab09e484, 0x889eca5c59ed9c51},
      {"greedy_seed2", 0x061db414eab6130a, 0x03df58f1206f6011},
      {"greedy_seed3", 0xb4bda944aee503e1, 0xcfd5c6ad52c25a0c},
      {"srpt_seed0", 0x112d9b428b594f29, 0xed533a72bfa4f339},
      {"srpt_seed1", 0x213514a4ab09e484, 0xa5ef998a83acbf0e},
      {"srpt_seed2", 0x061db414eab6130a, 0xc824b52700e403cf},
      {"srpt_seed3", 0xb4bda944aee503e1, 0x0a66e7105bc0e45d},
      {"srpt_noreexec_seed0", 0x112d9b428b594f29, 0xd426dac09529afbe},
      {"srpt_noreexec_seed1", 0x213514a4ab09e484, 0x00547c9f71291324},
      {"srpt_noreexec_seed2", 0x061db414eab6130a, 0x4703f1bdd5ef9756},
      {"srpt_noreexec_seed3", 0xb4bda944aee503e1, 0xf0ff35f58c4308b2},
      {"ssf_edf_seed0", 0x112d9b428b594f29, 0xf82683c8d669e685},
      {"ssf_edf_seed1", 0x213514a4ab09e484, 0x928f1eb38f4b8235},
      {"ssf_edf_seed2", 0x061db414eab6130a, 0xdc64b35f3794ec5e},
      {"ssf_edf_seed3", 0xb4bda944aee503e1, 0x079cc54352c94927},
      {"fcfs_seed0", 0x112d9b428b594f29, 0x544582e66799b7b2},
      {"fcfs_seed1", 0x213514a4ab09e484, 0x2a37269cfb074b13},
      {"fcfs_seed2", 0x061db414eab6130a, 0xb55009828fc2014a},
      {"fcfs_seed3", 0xb4bda944aee503e1, 0x6a2da3cf71322085},
      {"failover_srpt_seed0", 0x112d9b428b594f29, 0xed533a72bfa4f339},
      {"failover_srpt_seed1", 0x213514a4ab09e484, 0xac33b1ff4f2cab67},
      {"failover_srpt_seed2", 0x061db414eab6130a, 0xc824b52700e403cf},
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
