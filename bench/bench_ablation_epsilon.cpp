// bench_ablation_epsilon.cpp - Ablation A1: SSF-EDF binary-search precision.
//
// SSF-EDF's per-release binary search runs log(1/epsilon) feasibility
// probes (paper section V-D gives the complexity as
// O(n^2 P^c log(1/eps))). This ablation sweeps epsilon to expose the
// trade-off the paper's complexity analysis implies: coarser precision
// saves scheduling time, and beyond some point the target stretch gets
// sloppy enough to hurt the achieved max-stretch.
//
// Flags: --reps, --seed, --n, --eps=0.2,0.05,...
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "sched/ssf_edf.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace {

// run_sweep_point resolves policies by factory name, which has no epsilon
// parameter, so this bench drives the replication loop directly.
struct Row {
  double eps;
  ecs::Accumulator stretch;
  ecs::Accumulator wall;
};

}  // namespace

namespace {

int run(int argc, char** argv) {
  using namespace ecs;
  const Args args = Args::parse(argc, argv);
  bench::apply_log_level(args);
  const int reps = bench::parse_reps(args, 5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const int n = static_cast<int>(args.get_int("n", 1000));
  const std::vector<double> epsilons =
      args.get_double_list("eps", {0.5, 0.1, 0.01, 0.001, 0.0001});

  args.reject_unread();

  print_bench_header(std::cout,
                     "Ablation A1: SSF-EDF binary-search precision",
                     "random instances, n = " + std::to_string(n) +
                         ", CCR = 1, load 0.25",
                     reps, seed);

  std::vector<Row> rows;
  for (double eps : epsilons) {
    Row row;
    row.eps = eps;
    for (int rep = 0; rep < reps; ++rep) {
      RandomInstanceConfig cfg;
      cfg.n = n;
      cfg.ccr = 1.0;
      cfg.load = 0.25;
      Rng rng(derive_seed(seed, static_cast<std::uint64_t>(rep)));
      const Instance instance = make_random_instance(cfg, rng);

      SsfEdfConfig policy_cfg;
      policy_cfg.epsilon = eps;
      SsfEdfPolicy policy(policy_cfg);
      RunOptions options;
      options.validate = rep == 0;
      const RunOutcome outcome = run_policy(instance, policy, options);
      row.stretch.add(outcome.metrics.max_stretch);
      row.wall.add(outcome.wall_seconds);
    }
    rows.push_back(row);
    std::cout << "  [done] eps = " << format_double(eps, 6) << "\n";
  }

  std::cout << "\n";
  Table table({"epsilon", "max-stretch", "sched-time [s]"});
  for (const Row& row : rows) {
    table.add_row({format_double(row.eps, 6),
                   format_double(row.stretch.mean(), 4),
                   format_double(row.wall.mean(), 4)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
