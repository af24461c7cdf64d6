// bench_batch.cpp - Sweep throughput: the many-worlds batch driver against
// the legacy task-per-replication baseline (not a paper figure; tracks the
// substrate's performance).
//
// Both series run the SAME sweep point — identical instances, policies,
// seeds, validation contract and thread count — through run_sweep_point,
// differing only in SweepOptions::driver. The workload is a paper-style
// random scenario at sweep scale: many small replications, where the task
// path's per-run construction (policy objects, engine buffers, policy-timer
// clock reads) is pure overhead the batch driver's resident worlds avoid.
// tests/test_exp.cpp pins that the two drivers produce bit-identical
// aggregates, so this comparison is throughput-only by construction.
//
// Flags (besides the usual google-benchmark ones):
//   --json-out=PATH      compact JSON summary (one row per benchmark)
//   --min-speedup=X      after the run, compare the batch and tasks rows at
//                        the LARGEST common replication count and exit 4
//                        when tasks_time / batch_time < X (sanity floor for
//                        CI; see DESIGN.md section 7 for measured numbers).
//
// CI runs a small-N variant and gates the per-world times against
// bench/BENCH_batch_baseline.json via tools/check_bench_regression.py.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_micro_common.hpp"

#include "exp/sweep.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace {

/// Allocation-light policies on short worlds: the driver's fixed per-run
/// costs (construction, buffer setup, policy-timer clock reads) are the
/// object under measurement. With expensive policies (ssf-edf's search) or
/// big instances the two drivers converge, because the simulation itself
/// dominates and is identical work in both — see DESIGN.md section 7 for
/// the measured breakdown.
const std::vector<std::string> kPolicies = {"edge-only", "greedy",
                                            "srpt"};

ecs::Instance sweep_instance(std::uint64_t seed) {
  ecs::RandomInstanceConfig cfg;
  cfg.n = 30;  // short worlds: the regime where driver overhead shows
  cfg.cloud_count = 4;
  cfg.slow_edges = 3;
  cfg.fast_edges = 3;
  cfg.ccr = 1.0;
  cfg.load = 0.1;
  ecs::Rng rng(seed);
  return make_random_instance(cfg, rng);
}

ecs::SweepOptions sweep_options(int reps, ecs::SweepDriver driver) {
  ecs::SweepOptions options;
  options.replications = reps;
  options.driver = driver;
  options.point_index = 0;
  // Validation on: rep 0 of each policy records + validates, exactly what
  // the figure binaries do. Threads at the default (hardware concurrency)
  // for both drivers.
  options.validate_first = true;
  return options;
}

void run_point(benchmark::State& state, ecs::SweepDriver driver) {
  const int reps = static_cast<int>(state.range(0));
  const ecs::SweepOptions options = sweep_options(reps, driver);
  double max_stretch = 0.0;
  for (auto _ : state) {
    const ecs::SweepPointResult result = ecs::run_sweep_point(
        "point", [](std::uint64_t seed) { return sweep_instance(seed); },
        kPolicies, options);
    max_stretch = result.per_policy.front().max_stretch.mean();
    benchmark::DoNotOptimize(max_stretch);
  }
  const auto worlds =
      static_cast<double>(reps) * static_cast<double>(kPolicies.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(worlds) *
                          state.iterations());
  state.counters["worlds_per_s"] = benchmark::Counter(
      worlds, benchmark::Counter::kIsIterationInvariantRate);
}

void sweep_tasks(benchmark::State& state) {
  run_point(state, ecs::SweepDriver::kTasks);
}
void sweep_batch(benchmark::State& state) {
  run_point(state, ecs::SweepDriver::kBatch);
}

// Same Arg list for both so every replication count has a matched pair.
// UseRealTime: both drivers are internally multi-threaded, so wall time is
// the comparable quantity (and the one the speedup gate uses).
BENCHMARK(sweep_tasks)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(sweep_batch)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Strips --min-speedup=X from argv; 0 = not requested.
double extract_min_speedup(int& argc, char** argv) {
  const std::string prefix = "--min-speedup=";
  double value = 0.0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = std::atof(arg.substr(prefix.size()).c_str());
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

/// Finds the per-iteration time of `prefix/N` for the largest N present in
/// both series; returns 0 on no match.
double time_of(const std::vector<ecs::bench::CompactJsonReporter::Row>& rows,
               const std::string& name) {
  for (const auto& row : rows) {
    if (row.name == name) return row.real_time_ms;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  ecs::bench::apply_log_level_argv(argc, argv);
  const std::string json_path = ecs::bench::extract_json_out(argc, argv);
  const double min_speedup = extract_min_speedup(argc, argv);
  ecs::bench::CompactJsonReporter reporter("worlds_per_s", "per_world_ns");
  const int status =
      ecs::bench::run_micro_benchmarks(argc, argv, json_path, reporter);
  if (status != 0) return status;

  // Report the speedup at every matched replication count; gate on the
  // largest when --min-speedup was given.
  double gated_speedup = 0.0;
  long gated_reps = 0;
  for (const long reps : {100L, 1000L}) {
    std::string suffix = "/";
    suffix += std::to_string(reps);
    suffix += "/real_time";
    const double tasks = time_of(reporter.rows(), "sweep_tasks" + suffix);
    const double batch = time_of(reporter.rows(), "sweep_batch" + suffix);
    if (tasks <= 0.0 || batch <= 0.0) continue;
    const double speedup = tasks / batch;
    std::cout << "batch-vs-tasks speedup at " << reps
              << " replications: " << speedup << "x\n";
    gated_speedup = speedup;
    gated_reps = reps;
  }
  if (min_speedup > 0.0) {
    if (gated_reps == 0) {
      std::cerr << "error: --min-speedup given but no matched "
                   "sweep_tasks/sweep_batch pair was measured\n";
      return 4;
    }
    if (gated_speedup < min_speedup) {
      std::cerr << "error: batch speedup " << gated_speedup << "x at "
                << gated_reps << " replications is below the required "
                << min_speedup << "x\n";
      return 4;
    }
    std::cout << "speedup gate passed: " << gated_speedup << "x >= "
              << min_speedup << "x at " << gated_reps << " replications\n";
  }
  return 0;
}
