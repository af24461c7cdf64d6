// bench_ablation_cloudsize.cpp - Ablation A3: how many cloud processors
// does the platform need?
//
// The paper fixes 20 cloud processors for the random scenarios. This
// ablation sweeps the cloud size from 0 (pure edge) upward at fixed load
// to show where the heuristics stop benefiting from extra cloud capacity —
// the crossover between communication-bound and compute-bound operation.
//
// Flags: --reps, --seed, --n, --clouds=0,5,10,...
#include <iostream>

#include "bench_common.hpp"
#include "sched/factory.hpp"
#include "workloads/random_instances.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ecs;
  const Args args = Args::parse(argc, argv);
  const bench::CommonOptions options = bench::parse_common(args, 5);
  const int n = static_cast<int>(args.get_int("n", 1000));
  const std::vector<std::int64_t> cloud_sizes =
      args.get_int_list("clouds", {0, 2, 5, 10, 20, 40});
  const std::vector<std::string> policies = {"greedy", "srpt", "ssf-edf"};

  print_bench_header(
      std::cout, "Ablation A3: cloud size sweep",
      "random instances, n = " + std::to_string(n) +
          ", CCR = 1, load 0.25 (load horizon scales with capacity)",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<bench::FigurePoint> points;
  for (std::int64_t clouds : cloud_sizes) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 1.0;
    cfg.load = 0.25;
    cfg.cloud_count = static_cast<int>(clouds);
    points.emplace_back(std::to_string(clouds), bench::random_instances(cfg));
  }
  bench::report_sweep(
      bench::run_points(options, policies, "clouds = ", points), policies,
      options, "clouds");
  return bench::write_trace_artifacts(options, policies, points);
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
