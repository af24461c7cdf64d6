// test_probes.cpp - The benchmark's wrappers must be transparent: a run
// through TimedPolicy / TimedArrivals is identical to a bare run, and the
// wrapper's decide() count agrees with the engine profiler's elision
// counters. Also pins that fold_world rebuilds run_sweep_point's aggregates
// bit for bit, which the benchmark's timed-vs-replay digest relies on.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "exp/sweep.hpp"
#include "obs/profiler.hpp"
#include "probes.hpp"
#include "sched/factory.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

namespace perfbench {
namespace {

using namespace ecs;

/// A small platform with announced outages and unannounced faults.
Instance make_instance(int seed, FaultPlan& faults) {
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = 0.3;
  Rng rng(1000 + seed);
  Instance instance = make_random_instance(cfg, rng);
  OutageConfig outage_cfg;
  outage_cfg.fraction = 0.1;
  outage_cfg.mean_duration = 10.0;
  outage_cfg.horizon = 500.0;
  Rng outage_rng(2000 + seed);
  instance.cloud_outages =
      make_cloud_outages(cfg.cloud_count, outage_cfg, outage_rng);
  FaultConfig fault_cfg;
  fault_cfg.crash_rate = 0.002;
  fault_cfg.mean_repair = 20.0;
  fault_cfg.loss_rate = 0.005;
  fault_cfg.horizon = 500.0;
  Rng fault_rng(3000 + seed);
  faults = make_fault_plan(cfg.cloud_count, fault_cfg, fault_rng);
  return instance;
}

std::vector<std::string> every_factory_policy() {
  std::vector<std::string> names = policy_names();
  for (const std::string& base : policy_names()) {
    names.push_back("failover-" + base);
  }
  return names;
}

void expect_same_stats(const SimStats& a, const SimStats& b) {
  Digest da, db;
  da.add(a);
  db.add(b);
  EXPECT_EQ(da.hex(), db.hex());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.reassignments, b.reassignments);
  EXPECT_EQ(a.fault_aborts, b.fault_aborts);
  EXPECT_EQ(a.message_losses, b.message_losses);
}

TEST(Probes, WrappedPolicyRunsAreIdenticalToBareRuns) {
  for (const std::string& name : every_factory_policy()) {
    for (int seed = 0; seed < 3; ++seed) {
      SCOPED_TRACE(name + " seed " + std::to_string(seed));
      FaultPlan faults;
      const Instance instance = make_instance(seed, faults);
      EngineConfig config;
      config.faults = faults;

      const auto bare_policy = make_policy(name);
      const SimResult bare = simulate(instance, *bare_policy, config);

      SpanLog log;
      log.open(0, name);
      TimedPolicy wrapped(make_policy(name), log);
      obs::EngineProfiler profiler;
      EngineConfig profiled = config;
      profiled.profiler = &profiler;
      const SimResult traced = simulate(instance, wrapped, profiled);

      EXPECT_FALSE(faults.empty());
      EXPECT_EQ(bare.completions, traced.completions);
      expect_same_stats(bare.stats, traced.stats);
      ASSERT_EQ(bare.fault_log.size(), traced.fault_log.size());
      require_valid_schedule(instance, traced.schedule, faults);

      // sim.elided_fraction as the benchmark computes it, against the
      // profiler's own elision counters.
      const obs::ProfileReport report = profiler.report();
      const std::uint64_t calls = log.current().decide_calls;
      EXPECT_EQ(report.rounds, traced.stats.decisions);
      EXPECT_EQ(calls + report.elided_rounds, report.rounds);
      EXPECT_DOUBLE_EQ(
          1.0 - static_cast<double>(calls) /
                    static_cast<double>(traced.stats.decisions),
          static_cast<double>(report.elided_rounds) /
              static_cast<double>(report.rounds));
      if (name == "edge-only") EXPECT_GT(report.elided_rounds, 0u);
    }
  }
}

TEST(Probes, WrappedArrivalStreamIsIdenticalToBareStream) {
  Instance base;
  base.platform = make_random_platform(RandomInstanceConfig{});
  ArrivalConfig acfg;
  acfg.n = 2000;
  acfg.rate = 4.0;
  acfg.seed = 7;
  acfg.shape.edge_count = base.platform.edge_count();
  EngineConfig config;
  config.record_schedule = false;
  config.record_completions = false;
  config.admission.max_live = 64;

  const auto policy = make_policy("ssf-edf");
  const auto bare_stream = make_arrival_stream(acfg);
  const SimResult bare = simulate_stream(base, *bare_stream, *policy, config);

  SpanLog log;
  log.open(0, "ssf-edf");
  const auto stream = make_arrival_stream(acfg);
  TimedArrivals timed(*stream, log);
  TimedPolicy wrapped(make_policy("ssf-edf"), log);
  const SimResult traced = simulate_stream(base, timed, wrapped, config);

  expect_same_stats(bare.stats, traced.stats);
  EXPECT_GT(bare.stats.rejections, 0u);
  EXPECT_EQ(log.current().arrival_calls,
            static_cast<std::uint64_t>(acfg.n) + 1);  // + the final nullopt
}

TEST(Probes, FoldWorldRebuildsSweepAggregatesExactly) {
  RandomInstanceConfig cfg;
  cfg.n = 200;
  cfg.load = 0.3;
  const std::vector<std::string> policies = {"srpt", "ssf-edf"};
  const int reps = 5;
  SweepOptions options;
  options.replications = reps;
  options.base_seed = 11;
  options.threads = 2;
  options.point_index = 0;
  const auto draw = [&cfg](std::uint64_t seed) {
    Rng rng(seed);
    return make_random_instance(cfg, rng);
  };
  const SweepPointResult swept =
      run_sweep_point("p", draw, policies, options);

  std::vector<PolicyAggregate> rebuilt(policies.size());
  for (int rep = 0; rep < reps; ++rep) {
    const Instance instance = draw(sweep_seed(11, 0, "p", rep));
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const auto policy = make_policy(policies[p]);
      EngineConfig config;
      config.record_schedule = rep == 0;
      const SimResult result = simulate(instance, *policy, config);
      const ScheduleMetrics metrics =
          rep == 0 ? compute_metrics(instance, result.schedule)
                   : metrics_from_completions(instance, result.completions);
      fold_world(rebuilt[p], metrics, result.stats, 0.0);
    }
  }
  for (std::size_t p = 0; p < policies.size(); ++p) {
    Digest a, b;
    a.add(swept.per_policy[p]);
    b.add(rebuilt[p]);
    EXPECT_EQ(a.hex(), b.hex()) << policies[p];
  }
}

}  // namespace
}  // namespace perfbench
