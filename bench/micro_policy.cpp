// micro_policy.cpp - Microbenchmarks of online-policy arbitration
// (not a paper figure; tracks the decide() hot path).
//
// Three series:
//
//  * policy_decide/<policy>[_ref]/<live> — ns per decide() call, for the
//    optimized policies (src/sched/) and the frozen pre-rewrite references
//    (tests/reference_policies.hpp), driven directly on a pool-backed view
//    (tests/pool_view.hpp) whose live set has exactly <live> jobs.
//    Isolates pure arbitration cost as a function of live-set size: the
//    workspace reuse (zero steady-state allocation), the O(live) span
//    iteration and — for SSF-EDF — the warm-started stretch search.
//
//  * policy_decide/ssf_edf_steady/<live> — SSF-EDF between releases: one
//    release round sets the deadlines, then every timed call carries a
//    completion event and no release, so decide() re-sorts its kept EDF
//    order and runs the list assignment without a stretch search.
//
//  * policy_decide/{greedy,srpt}_ties/<live> — the same round with every
//    job duplicated (equal origin, release and amounts). Twins tie within
//    kDecisionMargin, so the value-ordered index cannot settle their picks
//    and the pick loops fall back to the scan: the worst case of the
//    index.
//
//  * policy_sim_sparse/<policy>/<n> — ns per decision over a full
//    simulate() of an n-job sparse-arrival instance whose live set stays
//    bounded (a few jobs) regardless of n: any per-decision cost that
//    scales with n instead of the live set shows up as growth in n.
//
// With --json-out=PATH ecs_microbench writes one row per benchmark with
// the per-iteration time and per-decision nanoseconds (CI keeps
// BENCH_policy.json as an artifact and gates on
// bench/BENCH_policy_baseline.json via tools/check_bench_regression.py).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pool_view.hpp"
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

    ecs::Time now = 0.0;
    for (const ecs::Job& job : instance.jobs) now = std::max(now, job.release);
    events.push_back(
        ecs::Event{ecs::EventKind::kRelease, instance.jobs.back().id, now, -1});
    completion.push_back(ecs::Event{ecs::EventKind::kComputeDone,
                                    instance.jobs.front().id, now, -1});
    round.emplace(instance, now);
  }
  DirectScenario(const DirectScenario&) = delete;  // the round points into it
  DirectScenario& operator=(const DirectScenario&) = delete;

  ecs::Instance instance;
  std::vector<ecs::Event> events;
  std::vector<ecs::Event> completion;  ///< a batch without a release
  std::optional<ecs::PoolView> round;  ///< built last: it points at `instance`
};

/// With `steady`, one untimed release round primes the policy and every
/// timed call gets the completion batch instead.
void policy_decide(benchmark::State& state, const char* policy_name,
                   bool use_ref, int copies = 1, bool steady = false) {
  const DirectScenario scenario(static_cast<int>(state.range(0)), copies);
  const ecs::SimView view = scenario.round->view();
  const auto policy = make_any_policy(policy_name, use_ref);
  policy->reset(scenario.instance);

  std::vector<ecs::Directive> out;
  if (steady) policy->decide(view, scenario.events, out);
  const std::vector<ecs::Event>& events =
      steady ? scenario.completion : scenario.events;
  for (auto _ : state) {
    out.clear();
    policy->decide(view, events, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["decisions_per_s"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
}

/// Over the engine series' sparse-arrival instance, whose live set stays
/// bounded while n grows: any per-decision cost that scales with n shows
/// up here.
void policy_sim_sparse(benchmark::State& state, const char* policy_name) {
  const int n = static_cast<int>(state.range(0));
  const ecs::Instance instance = ecs::bench::sparse_instance(n);
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    const auto policy = ecs::make_policy(policy_name);
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

BENCHMARK_CAPTURE(policy_decide, ssf_edf_steady, "ssf-edf", false, 1, true)
    ->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(policy_decide, greedy_ties, "greedy", false, 2)
    ->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(policy_decide, srpt_ties, "srpt", false, 2)
    ->Arg(64)->Arg(256);

// SSF-EDF over a growing instance with a bounded live set: its
// per-decision cost must stay flat from n = 1000 to n = 10000.
BENCHMARK_CAPTURE(policy_sim_sparse, ssf_edf, "ssf-edf")
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(policy_sim_sparse, srpt, "srpt")
    ->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(policy_sim_sparse, fcfs, "fcfs")
    ->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
