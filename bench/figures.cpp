// figures.cpp - The ecs_bench scenarios that reproduce Figure 2 of the
// paper: one row per x value, one column per heuristic, cells are the mean
// max-stretch.
//
// fig2a_random_ccr: random instances, n = 4000 jobs, 20 cloud processors,
// 10 slow (0.1) and 10 fast (0.5) edge processors, load 0.05; the
// Communication-to-Computation Ratio sweeps from 0.1 (compute-intensive)
// to 10 (communication-intensive). Expected shape (paper section VI-B):
// Edge-Only is far worse for small CCR (the cloud is nearly free to use);
// the gap narrows as communication gets expensive. SSF-EDF is best
// everywhere with SRPT close behind; Greedy trails; the cloud-using
// heuristics exceed a stretch of two only at the largest CCRs.
// Extra flags: --n=N (jobs), --ccr=0.1,0.5,... (sweep points),
//              --paper-policies (drop FCFS, keep the paper's four).
//
// fig2b_random_load: random instances with CCR = 1, sweeping the load from
// 0.05 up to 2. Following the paper, Edge-Only is omitted ("too costly
// since all jobs compete on the edge"). Expected shape: SSF-EDF is clearly
// best and degrades the most gracefully as the load grows; SRPT and Greedy
// increase drastically, and Greedy can overtake SRPT under heavy load.
// Greedy's scheduling time also grows sharply with the load (paper section
// VI-B, "execution times"). Under the paper's literal horizon formula (sum
// of work / (load * aggregate speed)), load > 1 oversubscribes the
// platform, so every policy's max-stretch necessarily grows with n — the
// comparative ordering is the reproducible signal here (see
// EXPERIMENTS.md).
// Extra flags: --n=N, --load=0.05,0.2,...
//
// fig2c_kang_20edges and fig2d_kang_100edges: Kang instances (GPU/CPU
// devices over Wi-Fi/LTE/3G, parameters from Kang et al. [24]) on 20 or
// 100 edge processors and 10 cloud processors; the number of jobs sweeps.
// Expected shape with 20 edges: SSF-EDF best, SRPT very close, Greedy
// behind, Edge-Only cannot keep up as n grows. With 100 edges competing
// for the same cloud, Greedy closes the gap with SRPT and SSF-EDF, and
// scheduling times are much higher (the paper reports up to 16 s for
// SSF-EDF at its largest instances).
// Extra flags: --n=250,500,... (sweep points), --edges=20 (or 100),
//              --clouds=10.
#include <iostream>

#include "bench_common.hpp"
#include "sched/factory.hpp"
#include "util/rng.hpp"
#include "workloads/kang_instances.hpp"
#include "workloads/random_instances.hpp"

namespace ecs::bench {

int fig2a_random_ccr(const Args& args) {
  const CommonOptions options = parse_common(args, 3);
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

  std::vector<FigurePoint> points;
  for (double ccr : ccrs) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = ccr;
    cfg.load = 0.05;
    points.emplace_back(format_double(ccr, 3), random_instances(cfg));
  }
  report_sweep(run_points(options, policies, "CCR = ", points), policies,
               options, "CCR");
  return write_trace_artifacts(options, policies, points);
}

int fig2b_random_load(const Args& args) {
  const CommonOptions options = parse_common(args, 3);
  const int n = static_cast<int>(args.get_int("n", 2000));
  const std::vector<double> loads =
      args.get_double_list("load", {0.05, 0.1, 0.25, 0.5, 1.0, 2.0});
  const std::vector<std::string> policies = {"greedy", "srpt", "ssf-edf"};

  args.reject_unread();

  print_bench_header(
      std::cout, "Figure 2(b): random instances, max-stretch vs load",
      "n = " + std::to_string(n) +
          ", CCR = 1, 20 cloud / 10+10 edge processors (Edge-Only omitted "
          "as in the paper)",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<FigurePoint> points;
  for (double load : loads) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 1.0;
    cfg.load = load;
    points.emplace_back(format_double(load, 3), random_instances(cfg));
  }
  report_sweep(run_points(options, policies, "load = ", points), policies,
               options, "load");
  return write_trace_artifacts(options, policies, points);
}

int fig2_kang(const Args& args, int default_edges, const std::string& title) {
  const CommonOptions options = parse_common(args, 3);
  const std::vector<std::int64_t> ns =
      args.get_int_list("n", {500, 1000, 2000, 4000});
  const int edges = static_cast<int>(args.get_int("edges", default_edges));
  const int clouds = static_cast<int>(args.get_int("clouds", 10));
  const std::vector<std::string> policies = paper_policy_names();

  args.reject_unread();

  print_bench_header(
      std::cout, title,
      std::to_string(edges) + " edge processors (GPU/CPU x WiFi/LTE/3G), " +
          std::to_string(clouds) + " cloud processors, load 0.05",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<FigurePoint> points;
  for (std::int64_t n : ns) {
    KangInstanceConfig cfg;
    cfg.n = static_cast<int>(n);
    cfg.edge_count = edges;
    cfg.cloud_count = clouds;
    cfg.load = 0.05;
    points.emplace_back(std::to_string(n), [cfg](std::uint64_t seed) {
      Rng rng(seed);
      return make_kang_instance(cfg, rng);
    });
  }
  report_sweep(run_points(options, policies, "n = ", points), policies,
               options, "n");
  return write_trace_artifacts(options, policies, points);
}

}  // namespace ecs::bench
