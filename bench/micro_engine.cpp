// micro_engine.cpp - Microbenchmarks of the simulation engine itself
// (not a paper figure; used to track the substrate's performance).
//
// Measures raw event throughput with the cheapest possible policy (fixed
// allocation and priorities) so the engine's bookkeeping — event queue,
// activation, interval recording — dominates, plus the marginal cost of
// schedule recording and of the section III-B validator.
//
// The engine_events_sparse series is the scaling probe for the active-set
// event loop: n grows to 100k jobs while arrivals stay spread out, so the
// number of *live* jobs at any instant is bounded and per-event cost must
// stay flat in n. A policy that reacts only to the events that fired (never
// sweeping all jobs) keeps the engine's own bookkeeping dominant.
//
// With --json-out=PATH (e.g. --json-out=BENCH_engine.json) ecs_microbench
// also writes a compact machine-readable summary: one row per benchmark
// with the per-iteration time, events per second and per-event nanoseconds.
//
// With --profile-out=PATH a dedicated self-profiled run (obs/profiler.hpp)
// of the n=10k sparse workload is executed outside google-benchmark and its
// phase-cost breakdown written as JSON, wrapped with the run's wall time
// and the profile's coverage of it (the phases tile prepare→finish, so
// coverage sits near 1). The same block is embedded under "profile" in
// --json-out. --profile-perfetto=PATH additionally renders the breakdown
// as a Perfetto trace.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/validate.hpp"
#include "obs/profiler.hpp"
#include "sched/fixed.hpp"
#include "sim/engine.hpp"
#include "sim/engine_core.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace {

ecs::Instance make_instance(int n, std::uint64_t seed) {
  ecs::RandomInstanceConfig cfg;
  cfg.n = n;
  cfg.ccr = 1.0;
  cfg.load = 0.05;
  ecs::Rng rng(seed);
  return make_random_instance(cfg, rng);
}

/// Round-robin fixed allocation: roughly half the jobs on their edge, the
/// rest spread over the clouds; priorities by id.
ecs::FixedPolicy make_fixed_policy(const ecs::Instance& instance) {
  std::vector<int> alloc(instance.jobs.size());
  std::vector<double> priority(instance.jobs.size());
  const int clouds = instance.platform.cloud_count();
  for (std::size_t i = 0; i < instance.jobs.size(); ++i) {
    alloc[i] = (i % 2 == 0) ? ecs::kAllocEdge
                            : static_cast<int>(i / 2 % clouds);
    priority[i] = static_cast<double>(i);
  }
  return ecs::FixedPolicy(std::move(alloc), std::move(priority));
}

/// O(|events|) policy: allocates each job once, at its release, and stays
/// silent otherwise. Unlike FixedPolicy (one directive per job per
/// decision), its cost does not grow with n, so the sparse series measures
/// the engine and not the policy. With `elide` false it opts out of no-op
/// round elision and decide() runs every round.
class OnReleasePolicy final : public ecs::Policy {
 public:
  OnReleasePolicy(int clouds, bool elide) : clouds_(clouds), elide_(elide) {}
  [[nodiscard]] std::string name() const override { return "OnRelease"; }
  void decide(const ecs::SimView& view,
              const std::vector<ecs::Event>& events,
              std::vector<ecs::Directive>& out) override {
    (void)view;
    for (const ecs::Event& e : events) {
      if (e.kind != ecs::EventKind::kRelease) continue;
      const int target = (e.job % 2 == 0)
                             ? ecs::kAllocEdge
                             : static_cast<int>(e.job / 2 % clouds_);
      out.push_back(
          ecs::Directive{e.job, target, static_cast<double>(e.job)});
    }
  }

  /// Pure function of the release events alone: rounds without a release
  /// provably emit nothing, so the engine may skip decide() entirely.
  [[nodiscard]] ecs::ElisionContract elision() const override {
    if (!elide_) return {};
    return ecs::ElisionContract{
        ecs::ElisionContract::Mode::kEmptyUnlessTriggered,
        ecs::ElisionContract::bit(ecs::EventKind::kRelease)};
  }

 private:
  int clouds_;
  bool elide_;
};

void engine_events(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ecs::Instance instance = make_instance(n, 7);
  std::uint64_t events = 0;
  for (auto _ : state) {
    ecs::FixedPolicy policy = make_fixed_policy(instance);
    ecs::EngineConfig config;
    config.record_schedule = false;
    const ecs::SimResult result = ecs::simulate(instance, policy, config);
    events = result.stats.events;
    benchmark::DoNotOptimize(result.completions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(engine_events)->Arg(200)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void engine_events_sparse_config(benchmark::State& state, bool elide) {
  const int n = static_cast<int>(state.range(0));
  const ecs::Instance instance = ecs::bench::sparse_instance(n);
  std::uint64_t events = 0;
  for (auto _ : state) {
    OnReleasePolicy policy(instance.platform.cloud_count(), elide);
    ecs::EngineConfig config;
    config.record_schedule = false;
    const ecs::SimResult result = ecs::simulate(instance, policy, config);
    events = result.stats.events;
    benchmark::DoNotOptimize(result.completions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}

void engine_events_sparse(benchmark::State& state) {
  engine_events_sparse_config(state, true);
}
BENCHMARK(engine_events_sparse)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Ablation for the DESIGN.md §8 breakdown: the row's policy opts out of
// no-op round elision (bit-identical results either way). Deliberately outside the CI gate's name filter — it attributes
// cost, it doesn't guard it.
void engine_events_sparse_noelide(benchmark::State& state) {
  engine_events_sparse_config(state, false);
}
BENCHMARK(engine_events_sparse_noelide)
    ->Arg(10000)->Unit(benchmark::kMillisecond);

void engine_core_reuse(benchmark::State& state) {
  // The batch driver's cost structure in isolation: one resident
  // EngineCore re-prepared per run (buffer capacity survives, zero
  // steady-state allocation), versus engine_events' fresh-everything
  // simulate(). Same instance, same fixed policy, same recording config —
  // the delta against engine_events at equal n is the per-run construction
  // cost the resident core avoids.
  const int n = static_cast<int>(state.range(0));
  const ecs::Instance instance = make_instance(n, 7);
  ecs::FixedPolicy policy = make_fixed_policy(instance);
  ecs::detail::EngineCore core;
  ecs::SimResult result;
  ecs::EngineConfig config;
  config.record_schedule = false;
  config.time_policy = false;
  std::uint64_t events = 0;
  for (auto _ : state) {
    policy.reset(instance);
    core.prepare(instance, nullptr, policy, config);
    while (!core.step_rounds(0)) {
    }
    core.finish_into(result);
    events = result.stats.events;
    benchmark::DoNotOptimize(result.completions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(engine_core_reuse)->Arg(200)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void engine_with_recording(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ecs::Instance instance = make_instance(n, 7);
  for (auto _ : state) {
    ecs::FixedPolicy policy = make_fixed_policy(instance);
    ecs::EngineConfig config;
    config.record_schedule = true;
    const ecs::SimResult result = ecs::simulate(instance, policy, config);
    benchmark::DoNotOptimize(result.schedule.job_count());
  }
}
BENCHMARK(engine_with_recording)->Arg(1000)->Unit(benchmark::kMillisecond);

void validator_cost(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ecs::Instance instance = make_instance(n, 7);
  ecs::FixedPolicy policy = make_fixed_policy(instance);
  const ecs::SimResult result = ecs::simulate(instance, policy);
  for (auto _ : state) {
    const auto violations =
        ecs::validate_schedule(instance, result.schedule);
    benchmark::DoNotOptimize(violations.size());
  }
}
BENCHMARK(validator_cost)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

namespace ecs::bench {

Instance sparse_instance(int n) {
  const int edges = 20;
  Instance instance;
  instance.platform = Platform(std::vector<double>(edges, 0.5), 4);
  instance.jobs.reserve(n);
  for (int i = 0; i < n; ++i) {
    Job job;
    job.id = i;
    job.origin = i % edges;
    job.work = 1.0 + 0.25 * (i % 4);
    job.release = 0.3 * i;
    job.up = 0.2;
    job.down = 0.1;
    instance.jobs.push_back(job);
  }
  return instance;
}

/// Self-profiled run of the n=10k sparse workload: the same configuration
/// as engine_events_sparse/10000, once, with an EngineProfiler attached and
/// the wall time measured around simulate(). Writes the profile (wrapped
/// with wall_ns and coverage = profiled-ns / wall-ns) to `json_path` and
/// optionally a Perfetto rendering to `perfetto_path`; returns the JSON
/// object for embedding into the --json-out summary.
std::string run_engine_profile(const std::string& json_path,
                               const std::string& perfetto_path) {
  const ecs::Instance instance = sparse_instance(10000);
  OnReleasePolicy policy(instance.platform.cloud_count(), true);
  ecs::obs::EngineProfiler profiler;  // calibrates the tick source up front
  ecs::EngineConfig config;
  config.record_schedule = false;
  config.profiler = &profiler;
  const auto t0 = std::chrono::steady_clock::now();
  const ecs::SimResult result = ecs::simulate(instance, policy, config);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count();
  const ecs::obs::ProfileReport report = profiler.report();

  std::ostringstream block;
  block << "{\"workload\": \"engine_events_sparse/10000\", \"wall_ns\": "
        << wall_ns << ", \"profiled_ns\": " << report.total_ns()
        << ", \"coverage\": "
        << (wall_ns > 0.0 ? report.total_ns() / wall_ns : 0.0)
        << ", \"report\": ";
  report.write_json(block);
  block << "}";

  report.print(std::cerr);
  std::cerr << "profiled run: " << result.stats.events << " events, wall "
            << wall_ns / 1e6 << " ms, coverage "
            << (wall_ns > 0.0 ? report.total_ns() / wall_ns : 0.0) << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write profile JSON to " << json_path << "\n";
    } else {
      out << block.str() << "\n";
      std::cout << "profile JSON -> " << json_path << "\n";
    }
  }
  if (!perfetto_path.empty()) {
    std::ofstream out(perfetto_path);
    if (!out) {
      std::cerr << "cannot write profile trace to " << perfetto_path << "\n";
    } else {
      report.write_perfetto(out);
      std::cout << "profile Perfetto trace -> " << perfetto_path << "\n";
    }
  }
  return block.str();
}

}  // namespace ecs::bench
