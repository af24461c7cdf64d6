// bench_fig2b_random_load.cpp - Reproduces Figure 2(b) of the paper.
//
// Random instances with CCR = 1, sweeping the load from 0.05 up to 2.
// Following the paper, Edge-Only is omitted ("too costly since all jobs
// compete on the edge"). Expected shape: SSF-EDF is clearly best and
// degrades the most gracefully as the load grows; SRPT and Greedy increase
// drastically, and Greedy can overtake SRPT under heavy load. Greedy's
// scheduling time also grows sharply with the load (paper section VI-B,
// "execution times").
//
// Note on absolute values: under the paper's literal horizon formula
// (sum of work / (load * aggregate speed)), load > 1 oversubscribes the
// platform, so every policy's max-stretch necessarily grows with n — the
// comparative ordering is the reproducible signal here (see
// EXPERIMENTS.md).
//
// Extra flags: --n=N, --load=0.05,0.2,...
#include <iostream>

#include "bench_common.hpp"
#include "sched/factory.hpp"
#include "workloads/random_instances.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ecs;
  const Args args = Args::parse(argc, argv);
  const bench::CommonOptions options = bench::parse_common(args, 3);
  const int n = static_cast<int>(args.get_int("n", 2000));
  const std::vector<double> loads =
      args.get_double_list("load", {0.05, 0.1, 0.25, 0.5, 1.0, 2.0});
  const std::vector<std::string> policies = {"greedy", "srpt", "ssf-edf"};

  print_bench_header(
      std::cout, "Figure 2(b): random instances, max-stretch vs load",
      "n = " + std::to_string(n) +
          ", CCR = 1, 20 cloud / 10+10 edge processors (Edge-Only omitted "
          "as in the paper)",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<bench::FigurePoint> points;
  for (double load : loads) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 1.0;
    cfg.load = load;
    points.emplace_back(format_double(load, 3), bench::random_instances(cfg));
  }
  bench::report_sweep(bench::run_points(options, policies, "load = ", points),
                      policies, options, "load");
  return bench::write_trace_artifacts(options, policies, points);
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
