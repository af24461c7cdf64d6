// Tests for the experiment harness (exp/runner.hpp, exp/sweep.hpp,
// exp/report.hpp), the batch driver under it (sim/batch.hpp) and the bench
// programs' common flags (bench/bench_common.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sched/factory.hpp"
#include "sim/batch.hpp"
#include "sim/faults.hpp"
#include "sim/policy.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

Instance tiny_instance(std::uint64_t seed) {
  RandomInstanceConfig cfg;
  cfg.n = 30;
  cfg.cloud_count = 2;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  Rng rng(seed);
  return make_random_instance(cfg, rng);
}

// ------------------------------------------------------------ batch driver

/// Never allocates a job, so the engine stops a world that uses it with a
/// stall error.
class ParkAll final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "ParkAll"; }
  void decide(const SimView&, const std::vector<Event>&,
              std::vector<Directive>&) override {}
};

/// The batch tests' policy table: srpt at 0, ParkAll at 1.
std::unique_ptr<Policy> srpt_or_park(std::size_t p) {
  if (p == 0) return make_policy("srpt");
  return std::make_unique<ParkAll>();
}

BatchOptions batch_options(unsigned threads) {
  BatchOptions options;
  options.threads = threads;
  options.worlds_per_thread = 2;
  return options;
}

TEST(Batch, RunsEveryWorldExactlyOnce) {
  std::vector<std::atomic<int>> built(100);
  std::vector<std::atomic<int>> finished(100);
  BatchEngine batch(1, srpt_or_park, batch_options(4));
  batch.run(
      built.size(),
      [&](std::size_t i, Instance& instance, WorldSetup&) {
        built[i].fetch_add(1);
        instance = tiny_instance(i);
      },
      [&](std::size_t i, const Instance&, SimResult&, double) {
        finished[i].fetch_add(1);
      });
  for (std::size_t i = 0; i < built.size(); ++i) {
    EXPECT_EQ(built[i].load(), 1) << "world " << i;
    EXPECT_EQ(finished[i].load(), 1) << "world " << i;
  }
}

TEST(Batch, OneThreadRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  int built = 0;
  int finished = 0;
  BatchEngine batch(1, srpt_or_park, batch_options(1));
  batch.run(
      10,
      [&](std::size_t i, Instance& instance, WorldSetup&) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++built;
        instance = tiny_instance(i);
      },
      [&](std::size_t, const Instance&, SimResult&, double) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++finished;
      });
  EXPECT_EQ(built, 10);
  EXPECT_EQ(finished, 10);
}

TEST(Batch, WallSecondsMeasureServiceNotResidence) {
  // One worker steps its two resident worlds a few rounds at a time, in
  // turn. Each world is timed over its own prepare, visits and finish:
  // disjoint stretches of run() on one clock, so the times of all worlds
  // add up to no more than run()'s wall time. Timed from launch to finish
  // instead, each world would also count its neighbour's rounds, and the
  // sum would come to about twice the wall time.
  RandomInstanceConfig cfg;
  cfg.n = 200;
  cfg.cloud_count = 4;
  Rng rng(5);
  const Instance instance = make_random_instance(cfg, rng);
  BatchOptions options = batch_options(1);
  options.rounds_per_visit = 4;
  BatchEngine batch(
      1, [](std::size_t) { return make_policy("ssf-edf"); }, options);
  std::vector<double> service(8, 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  batch.run(
      service.size(),
      [&](std::size_t, Instance& world, WorldSetup&) { world = instance; },
      [&](std::size_t i, const Instance&, SimResult&, double wall_seconds) {
        service[i] = wall_seconds;
      });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  double total = 0.0;
  for (const double s : service) {
    EXPECT_GT(s, 0.0);
    total += s;
  }
  EXPECT_LE(total, wall + 1e-6);
}

TEST(Batch, ZeroWorldsIsANoop) {
  BatchEngine batch(1, srpt_or_park, batch_options(4));
  batch.run(
      0, [](std::size_t, Instance&, WorldSetup&) { FAIL(); },
      [](std::size_t, const Instance&, SimResult&, double) { FAIL(); });
}

TEST(Batch, RethrowsTheException) {
  BatchEngine batch(1, srpt_or_park, batch_options(4));
  EXPECT_THROW(batch.run(
                   8,
                   [](std::size_t i, Instance& instance, WorldSetup&) {
                     instance = tiny_instance(i);
                   },
                   [](std::size_t i, const Instance&, SimResult&, double) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

/// Where world 200 of a 400-world batch fails.
enum class FailAt { kMakeWorld, kOnResult, kEngine };

class BatchStop : public ::testing::TestWithParam<FailAt> {};

TEST_P(BatchStop, NoQueuedWorldStartsAfterTheFirstFailure) {
  // 4 workers with 2 resident slots each hold at most 8 worlds, and each
  // worker may claim once more while the failure lands; beyond that, no
  // world past the failing one may be built. The run must also rethrow
  // the failure itself, not a later one. Worlds queued after the failing
  // one take 5 ms to build, so the failure lands while they are few even
  // when the workers share one core; a driver that does not stop still
  // builds all 400.
  constexpr std::size_t kWorlds = 400;
  constexpr std::size_t kFailing = 200;
  const FailAt where = GetParam();
  std::atomic<std::size_t> built{0};
  BatchEngine batch(2, srpt_or_park, batch_options(4));
  try {
    batch.run(
        kWorlds,
        [&](std::size_t i, Instance& instance, WorldSetup& setup) {
          built.fetch_add(1);
          if (i > kFailing) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          if (i == kFailing && where == FailAt::kMakeWorld) {
            throw std::runtime_error("world 200 failed");
          }
          instance = tiny_instance(i);
          // ParkAll stalls in the world's first round.
          setup.policy = i == kFailing && where == FailAt::kEngine ? 1 : 0;
        },
        [&](std::size_t i, const Instance&, SimResult&, double) {
          if (i == kFailing && where == FailAt::kOnResult) {
            throw std::runtime_error("world 200 failed");
          }
        });
    FAIL() << "the failure of world 200 was not rethrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    if (where == FailAt::kEngine) {
      EXPECT_NE(what.find("ParkAll"), std::string::npos) << what;
    } else {
      EXPECT_EQ(what, "world 200 failed");
    }
  }
  EXPECT_LE(built.load(), kFailing + 4 * 2 + 8);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, BatchStop,
    ::testing::Values(FailAt::kMakeWorld, FailAt::kOnResult, FailAt::kEngine),
    [](const auto& param_info) {
      switch (param_info.param) {
        case FailAt::kMakeWorld: return std::string("MakeWorld");
        case FailAt::kOnResult: return std::string("OnResult");
        case FailAt::kEngine: return std::string("EngineError");
      }
      return std::string();
    });

TEST(Runner, ValidatedRunProducesMetrics) {
  const Instance instance = tiny_instance(1);
  RunOptions options;
  options.validate = true;
  const RunOutcome outcome = run_policy(instance, "srpt", options);
  EXPECT_TRUE(outcome.validated);
  EXPECT_EQ(outcome.policy, "SRPT");
  EXPECT_GE(outcome.metrics.max_stretch, 1.0);
  EXPECT_GT(outcome.wall_seconds, 0.0);
  EXPECT_EQ(outcome.metrics.per_job.size(), instance.jobs.size());
}

TEST(Runner, UnvalidatedRunMatchesValidated) {
  const Instance instance = tiny_instance(2);
  RunOptions with;
  with.validate = true;
  RunOptions without;
  without.validate = false;
  const RunOutcome a = run_policy(instance, "ssf-edf", with);
  const RunOutcome b = run_policy(instance, "ssf-edf", without);
  EXPECT_NEAR(a.metrics.max_stretch, b.metrics.max_stretch, 1e-9);
  EXPECT_NEAR(a.metrics.mean_stretch, b.metrics.mean_stretch, 1e-9);
}

TEST(Runner, UnknownPolicyThrows) {
  const Instance instance = tiny_instance(3);
  EXPECT_THROW((void)run_policy(instance, "does-not-exist", RunOptions{}),
               std::invalid_argument);
}

TEST(Sweep, ReplicationSeedsAreDistinct) {
  const std::uint64_t a = sweep_seed(42, -1, "x", 0);
  const std::uint64_t b = sweep_seed(42, -1, "x", 1);
  const std::uint64_t c = sweep_seed(42, -1, "y", 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, sweep_seed(42, -1, "x", 0));
}

TEST(Sweep, AggregatesAllReplications) {
  SweepOptions options;
  options.replications = 4;
  options.threads = 2;
  const SweepPointResult result = run_sweep_point(
      "point", [](std::uint64_t seed) { return tiny_instance(seed); },
      {"srpt", "greedy"}, options);
  ASSERT_EQ(result.per_policy.size(), 2u);
  EXPECT_EQ(result.policy("srpt").max_stretch.count(), 4u);
  EXPECT_EQ(result.policy("greedy").max_stretch.count(), 4u);
  EXPECT_GE(result.policy("srpt").max_stretch.mean(), 1.0);
  EXPECT_THROW((void)result.policy("nope"), std::out_of_range);
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  SweepOptions serial;
  serial.replications = 3;
  serial.threads = 1;
  SweepOptions parallel_opts;
  parallel_opts.replications = 3;
  parallel_opts.threads = 3;
  const auto factory = [](std::uint64_t seed) { return tiny_instance(seed); };
  const SweepPointResult a =
      run_sweep_point("p", factory, {"srpt"}, serial);
  const SweepPointResult b =
      run_sweep_point("p", factory, {"srpt"}, parallel_opts);
  EXPECT_DOUBLE_EQ(a.policy("srpt").max_stretch.mean(),
                   b.policy("srpt").max_stretch.mean());
  EXPECT_DOUBLE_EQ(a.policy("srpt").max_stretch.stddev(),
                   b.policy("srpt").max_stretch.stddev());
}

TEST(Sweep, SweepSeedMixesThePointIndex) {
  // Backward compatibility: index -1 IS the historical (base, label,
  // replication) derivation, pinned to the value it has always produced.
  EXPECT_EQ(sweep_seed(42, -1, "x", 3), 3633416980360997971u);
  // Same label at different sweep points must draw distinct seed streams —
  // the collision two points whose values format identically used to hit.
  const std::uint64_t p0 = sweep_seed(42, 0, "0.50", 0);
  const std::uint64_t p1 = sweep_seed(42, 1, "0.50", 0);
  const std::uint64_t no_index = sweep_seed(42, -1, "0.50", 0);
  EXPECT_NE(p0, p1);
  EXPECT_NE(p0, no_index);
  EXPECT_NE(p1, no_index);
  // Deterministic, and still distinct across replications and bases.
  EXPECT_EQ(p0, sweep_seed(42, 0, "0.50", 0));
  EXPECT_NE(p0, sweep_seed(42, 0, "0.50", 1));
  EXPECT_NE(p0, sweep_seed(43, 0, "0.50", 0));
}

/// What run_sweep_point must aggregate, computed the plain way: one
/// run_policy() per (replication, policy) on the replication's seed,
/// validating replication 0, one sketch per run merged in replication
/// order. `fault_events` sums the fault aborts and message losses seen.
std::vector<PolicyAggregate> reference_point(
    const std::string& label, const InstanceFactory& factory,
    const std::vector<std::string>& policies, const SweepOptions& options,
    std::uint64_t* fault_events) {
  std::vector<PolicyAggregate> out(policies.size());
  for (int rep = 0; rep < options.replications; ++rep) {
    const std::uint64_t seed =
        sweep_seed(options.base_seed, options.point_index, label, rep);
    const Instance instance = factory(seed);
    RunOptions run_options;
    run_options.engine = options.engine;
    if (options.fault_factory) {
      run_options.engine.faults = options.fault_factory(instance, seed);
    }
    run_options.validate = options.validate_first && rep == 0;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const RunOutcome run = run_policy(instance, policies[p], run_options);
      EXPECT_EQ(run.validated, rep == 0);
      *fault_events += run.stats.fault_aborts + run.stats.message_losses;
      PolicyAggregate& agg = out[p];
      agg.max_stretch.add(run.metrics.max_stretch);
      agg.mean_stretch.add(run.metrics.mean_stretch);
      agg.reassignments.add(static_cast<double>(run.stats.reassignments));
      agg.events.add(static_cast<double>(run.stats.events));
      obs::QuantileSketch stretch;
      obs::QuantileSketch flow;
      for (const JobMetrics& jm : run.metrics.per_job) {
        stretch.observe(jm.stretch);
        flow.observe(jm.response);
      }
      agg.stretch_sketch.merge(stretch);
      agg.flow_sketch.merge(flow);
      agg.queue_depth_sketch.observe(
          static_cast<double>(run.stats.max_queue_depth));
    }
  }
  return out;
}

void expect_same_accumulator(const Accumulator& a, const Accumulator& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.stddev(), b.stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_same_sketch(const obs::QuantileSketch& a,
                        const obs::QuantileSketch& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q = " << q;
  }
}

/// Every accumulator and merged sketch of `a` and `b`, bit for bit,
/// wall_seconds excepted (it is wall time).
void expect_same_aggregate(const PolicyAggregate& a,
                           const PolicyAggregate& b) {
  expect_same_accumulator(a.max_stretch, b.max_stretch);
  expect_same_accumulator(a.mean_stretch, b.mean_stretch);
  expect_same_accumulator(a.reassignments, b.reassignments);
  expect_same_accumulator(a.events, b.events);
  expect_same_sketch(a.stretch_sketch, b.stretch_sketch);
  expect_same_sketch(a.flow_sketch, b.flow_sketch);
  expect_same_sketch(a.queue_depth_sketch, b.queue_depth_sketch);
}

/// run_sweep_point against reference_point, bit for bit.
void expect_matches_reference(const SweepOptions& options,
                              bool expect_faults) {
  const auto factory = [](std::uint64_t seed) { return tiny_instance(seed); };
  const std::vector<std::string> policies = {"srpt", "greedy", "ssf-edf"};
  const SweepPointResult swept =
      run_sweep_point("p", factory, policies, options);
  std::uint64_t fault_events = 0;
  const std::vector<PolicyAggregate> reference =
      reference_point("p", factory, policies, options, &fault_events);
  EXPECT_EQ(fault_events > 0, expect_faults);
  for (std::size_t p = 0; p < policies.size(); ++p) {
    SCOPED_TRACE(policies[p]);
    const PolicyAggregate& a = swept.policy(policies[p]);
    expect_same_aggregate(a, reference[p]);
    EXPECT_EQ(a.wall_seconds.count(), reference[p].max_stretch.count());
  }
}

TEST(Sweep, MatchesPerRunReferenceBitForBit) {
  // Multi-policy, multi-replication, validation on: replication 0 takes
  // the record + validate path.
  SweepOptions options;
  options.replications = 6;
  options.threads = 3;
  options.point_index = 2;
  expect_matches_reference(options, false);
}

TEST(Sweep, MatchesPerRunReferenceUnderAFaultPlan) {
  // The fault plan is drawn per replication; the validator of replication
  // 0 must see the same plan the engine ran, which the batch callback
  // re-derives from (instance, seed).
  SweepOptions options;
  options.replications = 6;
  options.threads = 3;
  options.point_index = 1;
  options.validate_first = true;
  options.fault_factory = [](const Instance& instance, std::uint64_t seed) {
    FaultConfig config;
    config.crash_rate = 0.02;
    config.mean_repair = 5.0;
    config.loss_rate = 0.05;
    config.horizon = 200.0;
    Rng rng(seed ^ 0x5eedULL);
    return make_fault_plan(instance.platform.cloud_count(), config, rng);
  };
  expect_matches_reference(options, true);
}

TEST(Sweep, RejectsReplicationsBelowOne) {
  const auto factory = [](std::uint64_t seed) { return tiny_instance(seed); };
  for (const int reps : {0, -1}) {
    SweepOptions options;
    options.replications = reps;
    try {
      (void)run_sweep_point("p", factory, {"srpt"}, options);
      FAIL() << "replications = " << reps << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("got " + std::to_string(reps)),
                std::string::npos)
          << e.what();
    }
  }
}

/// parse_common on the given flags (argv[0] is supplied).
bench::CommonOptions parse_flags(std::vector<const char*> flags) {
  flags.insert(flags.begin(), "bench");
  const Args args =
      Args::parse(static_cast<int>(flags.size()), flags.data());
  return bench::parse_common(args, 3);
}

/// The message parse_common throws for `flag`, or "" when it accepts it.
std::string parse_error(const char* flag) {
  try {
    (void)parse_flags({flag});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(BenchFlags, RepsAndThreadsAreChecked) {
  EXPECT_EQ(parse_flags({}).sweep.replications, 3);
  EXPECT_EQ(parse_flags({"--reps=1", "--threads=0"}).sweep.replications, 1);
  EXPECT_EQ(parse_flags({"--threads=2"}).sweep.threads, 2U);
  EXPECT_NE(parse_error("--reps=0").find("--reps"), std::string::npos);
  EXPECT_NE(parse_error("--reps=-1").find("--reps"), std::string::npos);
  EXPECT_NE(parse_error("--threads=-1").find("--threads"), std::string::npos);
  EXPECT_NE(parse_error("--reps=2147483648").find("--reps"),
            std::string::npos);
}

TEST(BenchFlags, UnknownTracePolicyFailsBeforeAnyPoint) {
  EXPECT_EQ(parse_error("--trace-policy=failover-srpt"), "");
  int drawn = 0;
  const InstanceFactory factory = [&drawn](std::uint64_t seed) {
    ++drawn;
    return tiny_instance(seed);
  };
  const std::vector<bench::FigurePoint> points = {{"p", factory}};
  try {
    // A scenario's flow: parse the flags, then sweep.
    const bench::CommonOptions options =
        parse_flags({"--trace-jsonl=x.jsonl", "--trace-policy=nope"});
    (void)bench::run_points(options, {"srpt"}, "", points);
    ADD_FAILURE() << "--trace-policy=nope was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--trace-policy"), std::string::npos) << message;
    EXPECT_NE(message.find("nope"), std::string::npos) << message;
  }
  EXPECT_EQ(drawn, 0);
}

/// An unknown --log-level throws like every other bad flag, so the bench
/// programs report it through guarded_main (`error: ...`, exit 1).
TEST(BenchFlags, UnknownLogLevelThrows) {
  EXPECT_NE(parse_error("--log-level=bogus").find("--log-level 'bogus'"),
            std::string::npos);
  // The argv form of the google-benchmark main strips the flag it reads
  // and leaves the others for benchmark::Initialize.
  std::vector<std::string> storage = {"microbench", "--benchmark_list_tests",
                                      "--log-level=bogus"};
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  int argc = static_cast<int>(argv.size());
  try {
    bench::apply_log_level_argv(argc, argv.data());
    ADD_FAILURE() << "--log-level=bogus was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--log-level 'bogus'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--benchmark_list_tests");
}

/// parse_reps on its own, as the benches outside parse_common call it.
TEST(BenchFlags, RepsHelperRejectsNonPositiveCounts) {
  const auto reps = [](std::vector<const char*> flags) {
    flags.insert(flags.begin(), "bench");
    return bench::parse_reps(
        Args::parse(static_cast<int>(flags.size()), flags.data()), 20);
  };
  EXPECT_EQ(reps({}), 20);
  EXPECT_EQ(reps({"--reps=1"}), 1);
  EXPECT_EQ(reps({"--reps=2147483647"}), 2147483647);
  for (const char* bad : {"--reps=0", "--reps=-3", "--reps=4294967296"}) {
    try {
      (void)reps({bad});
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--reps"), std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------ bench sweep loop

/// Runs bench::run_points on `points` with the srpt and greedy policies,
/// capturing what it prints.
std::vector<SweepPointResult> run_figure_points(
    const std::vector<bench::FigurePoint>& points, std::string* printed) {
  bench::CommonOptions options;
  options.sweep.replications = 3;
  options.sweep.threads = 2;
  std::ostringstream out;
  std::streambuf* const saved = std::cout.rdbuf(out.rdbuf());
  std::vector<SweepPointResult> results =
      bench::run_points(options, {"srpt", "greedy"}, "x = ", points);
  std::cout.rdbuf(saved);
  *printed = out.str();
  return results;
}

/// `point` equals run_sweep_point on `label` and `factory` under
/// point_index `index`, bit for bit (wall_seconds excepted).
void expect_same_as_hand_run(const SweepPointResult& point,
                             const std::string& label,
                             const InstanceFactory& factory, int index,
                             const FaultPlanFactory& faults = {}) {
  SweepOptions options;
  options.replications = 3;
  options.threads = 1;
  options.point_index = index;
  options.fault_factory = faults;
  const SweepPointResult want =
      run_sweep_point(label, factory, {"srpt", "greedy"}, options);
  EXPECT_EQ(point.label, label);
  for (const std::string policy : {"srpt", "greedy"}) {
    SCOPED_TRACE(policy);
    expect_same_aggregate(point.policy(policy), want.policy(policy));
  }
}

TEST(RunPoints, EachPointRunsUnderItsOwnIndex) {
  const InstanceFactory factory = [](std::uint64_t seed) {
    return tiny_instance(seed);
  };
  const std::vector<bench::FigurePoint> points = {{"same", factory},
                                                  {"same", factory}};
  std::string printed;
  const std::vector<SweepPointResult> results =
      run_figure_points(points, &printed);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(printed, "  [done] x = same\n  [done] x = same\n\n");
  // Equal labels, distinct instances: the point index splits the seeds.
  EXPECT_NE(results[0].policy("srpt").max_stretch.mean(),
            results[1].policy("srpt").max_stretch.mean());
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_same_as_hand_run(results[i], "same", factory, i);
  }
}

TEST(RunPoints, FaultPlanReachesOnlyItsOwnPoint) {
  const InstanceFactory factory = [](std::uint64_t seed) {
    return tiny_instance(seed);
  };
  // Records every seed the plan is drawn for; worlds run on two threads.
  std::mutex mutex;
  std::set<std::uint64_t> fault_seeds;
  const FaultPlanFactory faults = [&](const Instance& instance,
                                      std::uint64_t seed) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      fault_seeds.insert(seed);
    }
    FaultConfig config;
    config.crash_rate = 0.02;
    config.mean_repair = 5.0;
    config.loss_rate = 0.05;
    config.horizon = 200.0;
    Rng rng(seed ^ 0x5eedULL);
    return make_fault_plan(instance.platform.cloud_count(), config, rng);
  };
  const std::vector<bench::FigurePoint> points = {
      {"a", factory}, {"b", factory, faults}, {"c", factory}};
  std::string printed;
  const std::vector<SweepPointResult> results =
      run_figure_points(points, &printed);
  ASSERT_EQ(results.size(), 3u);
  // Only point 1's replications drew a plan.
  std::set<std::uint64_t> want_seeds;
  for (int rep = 0; rep < 3; ++rep) {
    want_seeds.insert(sweep_seed(42, 1, "b", rep));
  }
  EXPECT_EQ(fault_seeds, want_seeds);
  expect_same_as_hand_run(results[0], "a", factory, 0);
  expect_same_as_hand_run(results[1], "b", factory, 1, faults);
  expect_same_as_hand_run(results[2], "c", factory, 2);
}

TEST(Report, TableAlignmentAndCsv) {
  Table table({"x", "value"});
  table.add_row({"1", "10.5"});
  table.add_row({"2", "3"});
  std::ostringstream text;
  table.print(text);
  EXPECT_NE(text.str().find("x"), std::string::npos);
  EXPECT_NE(text.str().find("10.5"), std::string::npos);
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_EQ(csv.str(), "x,value\n1,10.5\n2,3\n");
  EXPECT_THROW(table.add_row({"only-one-cell"}), std::invalid_argument);
}

TEST(Report, CsvQuotesSpecialCells) {
  Table table({"name", "note"});
  table.add_row({"a,b", "plain"});
  table.add_row({"quote\"inside", "line\nbreak"});
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "name,note\n\"a,b\",plain\n\"quote\"\"inside\",\"line\nbreak\"\n");
}

TEST(Report, MakeReportBuildsOneRowPerPoint) {
  SweepOptions options;
  options.replications = 2;
  options.validate_first = false;
  std::vector<SweepPointResult> points;
  points.push_back(run_sweep_point(
      "a", [](std::uint64_t seed) { return tiny_instance(seed); }, {"srpt"},
      options));
  points.push_back(run_sweep_point(
      "b", [](std::uint64_t seed) { return tiny_instance(seed + 50); },
      {"srpt"}, options));
  ReportOptions report_options;
  report_options.x_label = "scenario";
  const Table table = make_report(points, {"srpt"}, report_options);
  EXPECT_EQ(table.row_count(), 2u);
}

}  // namespace
}  // namespace ecs
