// bench_fig2d_kang_100edges.cpp - Reproduces Figure 2(d) of the paper.
//
// Same as Figure 2(c) but with 100 edge processors competing for the same
// 10 cloud processors. Expected shape: with more competition for the cloud,
// Greedy closes the gap with SRPT and SSF-EDF; scheduling times are much
// higher than in the 20-edge scenario (the paper reports up to 16 s for
// SSF-EDF at its largest instances).
//
// Extra flags: --n=250,500,... (sweep points), --edges=100, --clouds=10.
#include <iostream>

#include "bench_common.hpp"
#include "sched/factory.hpp"
#include "util/rng.hpp"
#include "workloads/kang_instances.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ecs;
  const Args args = Args::parse(argc, argv);
  const bench::CommonOptions options = bench::parse_common(args, 3);
  const std::vector<std::int64_t> ns =
      args.get_int_list("n", {500, 1000, 2000, 4000});
  const int edges = static_cast<int>(args.get_int("edges", 100));
  const int clouds = static_cast<int>(args.get_int("clouds", 10));
  const std::vector<std::string> policies = paper_policy_names();

  args.reject_unread();

  print_bench_header(
      std::cout, "Figure 2(d): Kang instances, max-stretch vs n (100 edges)",
      std::to_string(edges) + " edge processors (GPU/CPU x WiFi/LTE/3G), " +
          std::to_string(clouds) + " cloud processors, load 0.05",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<bench::FigurePoint> points;
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
  bench::report_sweep(bench::run_points(options, policies, "n = ", points),
                      policies, options, "n");
  return bench::write_trace_artifacts(options, policies, points);
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
