// bench_fig2c_kang_20edges.cpp - Reproduces Figure 2(c) of the paper.
//
// Kang instances (GPU/CPU devices over Wi-Fi/LTE/3G, parameters from Kang
// et al. [24]) on 20 edge processors and 10 cloud processors; the number
// of jobs sweeps. Expected shape: SSF-EDF best, SRPT very close, Greedy
// behind, Edge-Only cannot keep up as n grows.
//
// Extra flags: --n=250,500,... (sweep points), --edges=20, --clouds=10.
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
  const int edges = static_cast<int>(args.get_int("edges", 20));
  const int clouds = static_cast<int>(args.get_int("clouds", 10));
  const std::vector<std::string> policies = paper_policy_names();

  args.reject_unread();

  print_bench_header(
      std::cout, "Figure 2(c): Kang instances, max-stretch vs n",
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
