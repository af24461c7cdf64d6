// Profiler & heartbeat invisibility harness.
//
// The self-profiler (obs/profiler.hpp) and the heartbeat monitor
// (obs/heartbeat.hpp) are pure observers of the engine, and this suite
// pins that claim with no tolerance to hide behind:
//
//  1. Bit-identical runs: on the random worlds of the run corpus
//     (tests/run_digest.hpp; outages, unannounced faults, and admission
//     pressure on even seeds), a run with a profiler attached must be the
//     profiler-free run of the same cell EXACTLY — completions, stats,
//     fault and admission logs, trace streams and interval histories.
//  2. Zero allocations on the null path: a warmed resident EngineCore run
//     with config.profiler == nullptr performs no heap allocation at all
//     (tests/counting_new.hpp), so an unprofiled engine pays nothing for
//     the hooks existing.
//  3. The profile itself is coherent: lap counts tile the run, the report
//     merges exactly, the JSON/Perfetto/metrics exports are well-formed.
//  4. Heartbeats never land on stdout, and the engine emits the
//     elided_rounds / peak_tracked gauges whenever metrics are attached
//     (no profiler needed).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "run_digest.hpp"
#include "sched/factory.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/engine_core.hpp"

namespace ecs {
namespace {

// --- 1. A profiled run is bit-identical to an unprofiled one. -------------

TEST(ProfilerInvisibility, ProfiledRunIsBitIdentical) {
  for (const char* policy_name : {"srpt", "greedy", "fcfs"}) {
    for (int seed = 0; seed < 6; ++seed) {
      const World world = random_world(seed);
      const auto policy = make_policy(policy_name);
      EngineConfig config;
      if (seed % 2 == 0) config.admission.max_live = 24;
      const Variant without = run_variant(world, *policy, config);
      obs::EngineProfiler profiler;
      config.profiler = &profiler;
      expect_same_run(run_variant(world, *policy, config), without,
                      cell_name(policy_name, seed) + " profiled");
      // And the profiler did observe the run it rode along on.
      EXPECT_EQ(profiler.report().events, without.result.stats.events);
    }
  }
}

// --- 2. Null path: a warmed resident core allocates nothing. --------------

TEST(ProfilerInvisibility, NullProfilerPathAllocatesNothing) {
  const Instance instance = random_world(0).instance;  // fault-free
  const auto policy = make_policy("srpt");
  EngineConfig config;
  config.record_schedule = false;
  config.time_policy = false;
  config.profiler = nullptr;

  detail::EngineCore core;
  SimResult result;
  // Warm-up: every buffer reaches capacity.
  policy->reset(instance);
  core.prepare(instance, nullptr, *policy, config);
  while (!core.step_rounds(0)) {
  }
  core.finish_into(result);

  // One full steady-state run, stage by stage. prepare() carries a single
  // pre-existing allocation (it predates the profiler; the engine reuse
  // contract has never claimed an alloc-free prepare) — the invariant the
  // profiler adds is that the HOT stages stay at exactly zero and prepare
  // stays at its historical count, i.e. the null hooks cost no heap at all.
  const std::size_t prepare_a = test::allocations_in([&] {
    policy->reset(instance);
    core.prepare(instance, nullptr, *policy, config);
  });
  EXPECT_EQ(test::allocations_in([&] {
              while (!core.step_rounds(0)) {
              }
            }),
            0u)
      << "null-profiler stepping must not touch the heap";
  EXPECT_EQ(test::allocations_in([&] { core.finish_into(result); }), 0u)
      << "null-profiler finish must not touch the heap";

  // And prepare's count is stable run over run: the null profiler hook
  // contributes nothing there either.
  const std::size_t prepare_b = test::allocations_in([&] {
    policy->reset(instance);
    core.prepare(instance, nullptr, *policy, config);
  });
  while (!core.step_rounds(0)) {
  }
  core.finish_into(result);
  EXPECT_EQ(prepare_a, prepare_b);
  EXPECT_LE(prepare_b, 1u) << "prepare() grew new steady-state allocations";
}

// --- 3. The profile itself is coherent. -----------------------------------

TEST(ProfilerReport, LapCountsTileTheRun) {
  const World world = random_world(1);
  const Instance& instance = world.instance;
  const FaultPlan& faults = world.faults;
  const auto policy = make_policy("srpt");
  obs::EngineProfiler profiler;
  EngineConfig config;
  config.faults = faults;
  config.profiler = &profiler;
  const SimResult result = simulate(instance, *policy, config);

  const obs::ProfileReport report = profiler.report();
  EXPECT_EQ(report.runs, 1u);
  EXPECT_EQ(report.events, result.stats.events);
  EXPECT_EQ(report.decisions, result.stats.decisions);
  EXPECT_EQ(report.peak_live, result.stats.peak_live);
  EXPECT_LE(report.elided_rounds, report.rounds);
  EXPECT_GT(report.rounds, 0u);
  EXPECT_GT(report.total_ns(), 0.0);
  EXPECT_GT(report.tick_ns, 0.0);

  using obs::EnginePhase;
  const auto count = [&](EnginePhase p) {
    return report.phases[static_cast<std::size_t>(p)].count;
  };
  // Once per run.
  EXPECT_EQ(count(EnginePhase::kPrepare), 1u);
  EXPECT_EQ(count(EnginePhase::kFinish), 1u);
  // Once per decision round — rounds is defined as the kDecide lap count.
  EXPECT_EQ(count(EnginePhase::kDecide), report.rounds);
  EXPECT_EQ(count(EnginePhase::kAllocate), report.rounds);
  EXPECT_EQ(count(EnginePhase::kActivate), report.rounds);
  EXPECT_EQ(count(EnginePhase::kEmit), report.rounds);
  // The advance phases lap once per round too (the loop alternates
  // decide/advance; the final round ends the run instead of advancing).
  EXPECT_GT(count(EnginePhase::kEventScan), 0u);
  EXPECT_LE(count(EnginePhase::kEventScan), report.rounds);

  // Every decision round fed the policy's latency sketch.
  ASSERT_EQ(report.decision_ns.size(), 1u);
  EXPECT_EQ(report.decision_ns.begin()->second.count(),
            static_cast<std::uint64_t>(report.rounds));
}

TEST(ProfilerReport, MergeAddsExactly) {
  const World world = random_world(2);
  const Instance& instance = world.instance;
  const FaultPlan& faults = world.faults;
  obs::EngineProfiler a;
  obs::EngineProfiler b;
  for (obs::EngineProfiler* profiler : {&a, &b}) {
    const auto policy = make_policy("srpt");
    EngineConfig config;
    config.faults = faults;
    config.profiler = profiler;
    (void)simulate(instance, *policy, config);
  }
  obs::ProfileReport ra = a.report();
  const obs::ProfileReport rb = b.report();
  const std::uint64_t rounds = ra.rounds;
  const std::uint64_t sketch_count = ra.decision_ns.begin()->second.count();
  ra.merge(rb);
  EXPECT_EQ(ra.runs, 2u);
  EXPECT_EQ(ra.rounds, rounds + rb.rounds);
  EXPECT_EQ(ra.events, 2 * rb.events);  // identical deterministic runs
  ASSERT_EQ(ra.decision_ns.size(), 1u);
  EXPECT_EQ(ra.decision_ns.begin()->second.count(),
            sketch_count + rb.decision_ns.begin()->second.count());

  // Merging an empty report is a no-op on the counts.
  const std::uint64_t merged_rounds = ra.rounds;
  ra.merge(obs::ProfileReport{});
  EXPECT_EQ(ra.rounds, merged_rounds);
}

TEST(ProfilerReport, ExportsAreWellFormed) {
  const World world = random_world(3);
  const Instance& instance = world.instance;
  const FaultPlan& faults = world.faults;
  const auto policy = make_policy("srpt");
  obs::EngineProfiler profiler;
  EngineConfig config;
  config.faults = faults;
  config.profiler = &profiler;
  (void)simulate(instance, *policy, config);
  const obs::ProfileReport report = profiler.report();

  std::ostringstream json;
  report.write_json(json);
  const obs::json::Value doc = obs::json::parse(json.str());
  EXPECT_EQ(doc.at("rounds").as_int(),
            static_cast<std::int64_t>(report.rounds));
  ASSERT_NE(doc.find("phases"), nullptr);
  EXPECT_EQ(doc.at("phases").object.size(), obs::kEnginePhaseCount);
  ASSERT_NE(doc.find("decision_ns"), nullptr);

  std::ostringstream perfetto;
  report.write_perfetto(perfetto);
  const obs::json::Value trace = obs::json::parse(perfetto.str());
  ASSERT_NE(trace.find("traceEvents"), nullptr);
  EXPECT_GT(trace.at("traceEvents").array.size(), obs::kEnginePhaseCount);

  obs::MetricsRegistry registry;
  report.to_metrics(registry);
  std::ostringstream metrics;
  registry.write_json(metrics);
  EXPECT_NE(metrics.str().find("engine.profile.phase.decide"),
            std::string::npos);
  EXPECT_NE(metrics.str().find("engine.profile.rounds"), std::string::npos);
}

TEST(ProfilerReport, BatchDriverMergesPerSlotProfiles) {
  const World world = random_world(4);
  const Instance& instance = world.instance;
  const FaultPlan& faults = world.faults;
  BatchOptions options;
  options.threads = 2;
  options.profile = true;
  BatchEngine batch(
      1, [](std::size_t) { return make_policy("srpt"); }, options);
  const std::size_t worlds = 6;
  std::vector<std::uint64_t> events(worlds, 0);
  batch.run(
      worlds,
      [&](std::size_t, Instance& world_instance, WorldSetup& setup) {
        world_instance = instance;
        setup.policy = 0;
        setup.config.faults = faults;
        setup.config.record_schedule = false;
        setup.config.time_policy = false;
      },
      [&](std::size_t index, const Instance&, SimResult& result, double) {
        events[index] = result.stats.events;
      });
  const obs::ProfileReport report = batch.profile_report();
  EXPECT_EQ(report.runs, worlds);
  std::uint64_t total_events = 0;
  for (const std::uint64_t e : events) total_events += e;
  EXPECT_EQ(report.events, total_events);
  ASSERT_EQ(report.decision_ns.size(), 1u);
}

// --- 4. Heartbeats: stderr-only, coherent counters. -----------------------

TEST(Heartbeat, EmitsTextAndJsonl) {
  std::ostringstream text;
  std::ostringstream jsonl;
  obs::HeartbeatMonitor monitor(0.0, &text, &jsonl);
  for (int i = 0; i < 1024; ++i) {
    monitor.tick(static_cast<double>(i), static_cast<std::uint64_t>(2 * i),
                 7, 1);
  }
  monitor.flush();
  EXPECT_GE(monitor.beats(), 3u);
  EXPECT_NE(text.str().find("[heartbeat"), std::string::npos);

  // Every JSONL line is one well-formed object with the documented keys.
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    const obs::json::Value doc = obs::json::parse(line);
    EXPECT_NE(doc.find("wall_s"), nullptr);
    EXPECT_NE(doc.find("events"), nullptr);
    ++parsed;
  }
  EXPECT_EQ(parsed, monitor.beats());
}

TEST(Heartbeat, NeverWritesToStdout) {
  const World world = random_world(0);
  const Instance& instance = world.instance;
  const FaultPlan& faults = world.faults;
  const auto policy = make_policy("srpt");
  obs::HeartbeatMonitor monitor(0.0);  // default stream: stderr
  EngineConfig config;
  config.faults = faults;
  config.heartbeat = &monitor;

  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  (void)simulate(instance, *policy, config);
  monitor.flush();  // guarantees at least one beat even on a short run
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(out.empty()) << "heartbeat leaked onto stdout: " << out;
  EXPECT_NE(err.find("[heartbeat"), std::string::npos);
  EXPECT_GE(monitor.beats(), 1u);
}

// --- 5. Engine gauges surface without a profiler (metrics alone). ---------

TEST(EngineMetrics, ElidedRoundsAndPeakTrackedGauges) {
  const World world = random_world(5);
  const Instance& instance = world.instance;
  const FaultPlan& faults = world.faults;
  const auto policy = make_policy("srpt");
  obs::MetricsRegistry registry;
  EngineConfig config;
  config.faults = faults;
  config.metrics = &registry;
  (void)simulate(instance, *policy, config);

  std::ostringstream json;
  registry.write_json(json);
  EXPECT_NE(json.str().find("engine.elided_rounds"), std::string::npos);
  EXPECT_NE(json.str().find("engine.peak_tracked"), std::string::npos);
  EXPECT_NE(json.str().find("engine.peak_live"), std::string::npos);
}

}  // namespace
}  // namespace ecs
