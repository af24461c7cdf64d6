// bench_policy_micro.cpp - Microbenchmarks of online-policy arbitration
// (not a paper figure; tracks the decide() hot path).
//
// Two series, each run for both the optimized policies (src/sched/) and
// the frozen pre-rewrite references (tests/reference_policies.hpp):
//
//  * policy_decide/<policy>[_ref]/<live> — ns per decide() call, driven
//    directly on a hand-built view whose live set has exactly <live> jobs.
//    Isolates pure arbitration cost as a function of live-set size: the
//    workspace reuse (zero steady-state allocation), the O(live) span
//    iteration and — for SSF-EDF — the warm-started stretch search.
//
//  * policy_decide/{greedy,srpt}_ties/<live> — the same round with every
//    job duplicated (equal origin, release and amounts). Twins tie within
//    kDecisionMargin, so the value-ordered index cannot settle their picks
//    and the pick loops fall back to the scan: the worst case of the
//    index.
//
//  * policy_sim_sparse/<policy>[_ref]/<n> — ns per decision over a full
//    simulate() of an n-job sparse-arrival instance whose live set stays
//    bounded (a few jobs) regardless of n. This is the headline O(live)
//    vs O(n) comparison: the reference scans all n job states on every
//    decision, the optimized policy touches only the live span.
//
// With --json-out=PATH the binary writes one row per benchmark with the
// per-iteration time and per-decision nanoseconds (CI keeps
// BENCH_policy.json as an artifact and gates on
// bench/BENCH_policy_baseline.json via tools/check_bench_regression.py).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_micro_common.hpp"

#include "reference_policies.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace {

std::unique_ptr<ecs::Policy> make_any_policy(const std::string& name,
                                             bool use_ref) {
  return use_ref ? ecs::ref::make_reference_policy(name)
                 : ecs::make_policy(name);
}

/// One decision round, directly driven: every job of a random instance is
/// live and unassigned, and the event batch carries one release so the
/// deadline-recompute (stretch search) paths run on every call. With
/// `copies` > 1 the instance has live_count / copies jobs, each repeated
/// `copies` times.
struct DirectScenario {
  explicit DirectScenario(int live_count, int copies = 1) {
    ecs::RandomInstanceConfig cfg;
    cfg.n = live_count / copies;
    cfg.cloud_count = 3;
    cfg.slow_edges = 2;
    cfg.fast_edges = 2;
    cfg.load = 0.3;
    ecs::Rng rng(42);
    const ecs::Instance base = make_random_instance(cfg, rng);
    instance.platform = base.platform;
    for (const ecs::Job& job : base.jobs) {
      for (int copy = 0; copy < copies; ++copy) {
        ecs::Job twin = job;
        twin.id = instance.job_count();
        instance.jobs.push_back(twin);
      }
    }

    now = 0.0;
    for (const ecs::Job& job : instance.jobs) {
      live.push_back(job.id);
      now = std::max(now, job.release);
    }
    for (const ecs::Job& job : instance.jobs) {
      ecs::JobState s;
      s.job = job;
      s.best_time = instance.platform.best_time(job);
      s.rem_work = job.work;
      s.released = true;
      states.push_back(s);
    }
    events.push_back(
        ecs::Event{ecs::EventKind::kRelease, instance.jobs.back().id, now, -1});
  }

  ecs::Instance instance;
  std::vector<ecs::JobState> states;
  std::vector<ecs::JobId> live;
  std::vector<ecs::Event> events;
  ecs::Time now = 0.0;
};

void policy_decide(benchmark::State& state, const char* policy_name,
                   bool use_ref, int copies = 1) {
  const DirectScenario scenario(static_cast<int>(state.range(0)), copies);
  const ecs::SimView view(scenario.instance, scenario.states, scenario.now,
                          &scenario.live);
  const auto policy = make_any_policy(policy_name, use_ref);
  policy->reset(scenario.instance);

  std::vector<ecs::Directive> out;
  for (auto _ : state) {
    out.clear();
    policy->decide(view, scenario.events, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["decisions_per_s"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
}

/// Deterministic sparse-activity instance (same shape as the engine
/// micro-bench): arrivals spaced so the live set stays bounded while n
/// grows. Any per-decision cost that scales with n shows up here.
ecs::Instance sparse_instance(int n) {
  const int edges = 20;
  ecs::Instance instance;
  instance.platform = ecs::Platform(std::vector<double>(edges, 0.5), 4);
  instance.jobs.reserve(n);
  for (int i = 0; i < n; ++i) {
    ecs::Job job;
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

void policy_sim_sparse(benchmark::State& state, const char* policy_name,
                       bool use_ref) {
  const int n = static_cast<int>(state.range(0));
  const ecs::Instance instance = sparse_instance(n);
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    const auto policy = make_any_policy(policy_name, use_ref);
    ecs::EngineConfig config;
    config.record_schedule = false;
    const ecs::SimResult result = ecs::simulate(instance, *policy, config);
    decisions = result.stats.decisions;
    benchmark::DoNotOptimize(result.completions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions) *
                          state.iterations());
  state.counters["decisions_per_s"] = benchmark::Counter(
      static_cast<double>(decisions),
      benchmark::Counter::kIsIterationInvariantRate);
}

#define ECS_POLICY_DECIDE_BENCH(tag, name)                           \
  BENCHMARK_CAPTURE(policy_decide, tag, name, false)                 \
      ->Arg(16)->Arg(64)->Arg(256);                                  \
  BENCHMARK_CAPTURE(policy_decide, tag##_ref, name, true)            \
      ->Arg(16)->Arg(64)->Arg(256)

ECS_POLICY_DECIDE_BENCH(fcfs, "fcfs");
ECS_POLICY_DECIDE_BENCH(greedy, "greedy");
ECS_POLICY_DECIDE_BENCH(srpt, "srpt");
ECS_POLICY_DECIDE_BENCH(ssf_edf, "ssf-edf");
ECS_POLICY_DECIDE_BENCH(edge_only, "edge-only");
ECS_POLICY_DECIDE_BENCH(failover_srpt, "failover-srpt");

#undef ECS_POLICY_DECIDE_BENCH

BENCHMARK_CAPTURE(policy_decide, greedy_ties, "greedy", false, 2)
    ->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(policy_decide, srpt_ties, "srpt", false, 2)
    ->Arg(64)->Arg(256);

// The headline O(live) vs O(n) series: SSF-EDF over a growing instance
// with a bounded live set. The reference re-scans all n states (and cold
// restarts its stretch search) on every decision, so its per-decision
// cost grows linearly in n; the optimized policy's stays flat.
BENCHMARK_CAPTURE(policy_sim_sparse, ssf_edf, "ssf-edf", false)
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(policy_sim_sparse, ssf_edf_ref, "ssf-edf", true)
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(policy_sim_sparse, srpt, "srpt", false)
    ->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(policy_sim_sparse, fcfs, "fcfs", false)
    ->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ecs::bench::apply_log_level_argv(argc, argv);
  const std::string json_path = ecs::bench::extract_json_out(argc, argv);
  ecs::bench::CompactJsonReporter reporter("decisions_per_s",
                                           "per_decision_ns");
  return ecs::bench::run_micro_benchmarks(argc, argv, json_path, reporter);
}
