// bench_fig2a_random_ccr.cpp - Reproduces Figure 2(a) of the paper.
//
// Random instances, n = 4000 jobs, 20 cloud processors, 10 slow (0.1) and
// 10 fast (0.5) edge processors, load 0.05; the Communication-to-
// Computation Ratio sweeps from 0.1 (compute-intensive) to 10
// (communication-intensive). One row per CCR, one column per heuristic,
// cells are the mean max-stretch.
//
// Expected shape (paper section VI-B): Edge-Only is far worse for small
// CCR (the cloud is nearly free to use); the gap narrows as communication
// gets expensive. SSF-EDF is best everywhere with SRPT close behind;
// Greedy trails; the cloud-using heuristics exceed a stretch of two only
// at the largest CCRs.
//
// Extra flags: --n=N (jobs), --ccr=0.1,0.5,... (sweep points),
//              --paper-policies (drop FCFS, keep the paper's four).
#include <iostream>

#include "bench_common.hpp"
#include "sched/factory.hpp"
#include "workloads/random_instances.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ecs;
  const Args args = Args::parse(argc, argv);
  const bench::CommonOptions options = bench::parse_common(args, 3);
  const int n = static_cast<int>(args.get_int("n", 4000));
  const std::vector<double> ccrs =
      args.get_double_list("ccr", {0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0});
  const std::vector<std::string> policies = args.get_bool("paper-policies",
                                                          false)
                                                ? paper_policy_names()
                                                : policy_names();

  args.reject_unread();

  print_bench_header(
      std::cout, "Figure 2(a): random instances, max-stretch vs CCR",
      "n = " + std::to_string(n) +
          ", 20 cloud / 10+10 edge processors, load 0.05",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<bench::FigurePoint> points;
  for (double ccr : ccrs) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = ccr;
    cfg.load = 0.05;
    points.emplace_back(format_double(ccr, 3), bench::random_instances(cfg));
  }
  bench::report_sweep(bench::run_points(options, policies, "CCR = ", points),
                      policies, options, "CCR");
  return bench::write_trace_artifacts(options, policies, points);
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
