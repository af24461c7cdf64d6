// micro_exec_times.cpp - Reproduces the paper's "Execution times"
// measurements (section VI-B) with google-benchmark (ecs_microbench
// --benchmark_filter=run_policy_bench).
//
// The paper reports the wall time each heuristic needs to compute its
// schedule: SRPT is much faster than SSF-EDF and Edge-Only; Greedy matches
// SRPT at low load but degrades sharply as the load grows; times increase
// with n and the load but stay flat in the CCR.
//
// Each benchmark simulates one full instance (scheduling + engine) for the
// given (policy, n, load) combination on random instances with CCR = 1.
#include <benchmark/benchmark.h>

#include <string>

#include "exp/runner.hpp"
#include "sched/factory.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace {

ecs::Instance make_instance(int n, double load, std::uint64_t seed) {
  ecs::RandomInstanceConfig cfg;
  cfg.n = n;
  cfg.ccr = 1.0;
  cfg.load = load;
  ecs::Rng rng(seed);
  return make_random_instance(cfg, rng);
}

void run_policy_bench(benchmark::State& state, const std::string& policy) {
  const int n = static_cast<int>(state.range(0));
  const double load = static_cast<double>(state.range(1)) / 100.0;
  const ecs::Instance instance = make_instance(n, load, 42);
  double max_stretch = 0.0;
  for (auto _ : state) {
    ecs::RunOptions options;
    options.validate = false;
    const ecs::RunOutcome outcome =
        ecs::run_policy(instance, policy, options);
    max_stretch = outcome.metrics.max_stretch;
    benchmark::DoNotOptimize(max_stretch);
  }
  state.counters["max_stretch"] = max_stretch;
  state.counters["jobs_per_s"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
}

void args_grid(benchmark::internal::Benchmark* bench) {
  // (n, load * 100). Loads 0.05 and 0.5 bracket the paper's range without
  // making the default suite run for minutes.
  for (const int n : {500, 1000, 2000}) {
    bench->Args({n, 5});
  }
  bench->Args({1000, 50});
}

}  // namespace

BENCHMARK_CAPTURE(run_policy_bench, edge_only, std::string("edge-only"))
    ->Apply(args_grid)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(run_policy_bench, greedy, std::string("greedy"))
    ->Apply(args_grid)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(run_policy_bench, srpt, std::string("srpt"))
    ->Apply(args_grid)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(run_policy_bench, ssf_edf, std::string("ssf-edf"))
    ->Apply(args_grid)
    ->Unit(benchmark::kMillisecond);
