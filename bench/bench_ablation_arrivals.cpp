// bench_ablation_arrivals.cpp - Ablation A5: robustness to the arrival
// model.
//
// The paper draws release dates uniformly over the load-controlled
// horizon. Real edge traffic is rarely uniform: this ablation re-runs the
// Figure 2(a)-style comparison under Poisson (memoryless) and bursty
// (clustered) arrivals at the same mean rate, checking that the paper's
// conclusions — SSF-EDF best, SRPT close, Greedy behind — survive the
// change of arrival process. Bursty arrivals are the stress case: entire
// clusters compete for the cloud at once.
//
// Flags: --reps, --seed, --n, --load.
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
  const double load = args.get_double("load", 0.2);
  const std::vector<std::string> policies = {"greedy", "srpt", "ssf-edf",
                                             "fcfs"};

  args.reject_unread();

  print_bench_header(
      std::cout, "Ablation A5: arrival-process robustness",
      "random instances, n = " + std::to_string(n) + ", CCR = 1, load " +
          format_double(load, 3) +
          "; same mean rate under uniform / Poisson / bursty releases",
      options.sweep.replications, options.sweep.base_seed);

  const std::vector<std::pair<std::string, ReleaseProcess>> processes = {
      {"uniform", ReleaseProcess::kUniform},
      {"poisson", ReleaseProcess::kPoisson},
      {"bursty", ReleaseProcess::kBursty},
  };

  std::vector<bench::FigurePoint> points;
  for (const auto& [label, process] : processes) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 1.0;
    cfg.load = load;
    cfg.release_process = process;
    points.emplace_back(label, bench::random_instances(cfg));
  }
  bench::report_sweep(bench::run_points(options, policies, "", points),
                      policies, options, "arrivals");
  return bench::write_trace_artifacts(options, policies, points);
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
