// bench_competitive_ratio.cpp - Empirical competitiveness of the online
// stretch-so-far EDF algorithm on a single machine.
//
// The paper builds on Bender et al.: on one processor, stretch-so-far EDF
// with alpha = 1 is Delta-competitive, where Delta is the ratio between
// the longest and the shortest job, and the offline optimum is computable
// in polynomial time by binary search + preemptive EDF. The paper's
// future work asks for competitive bounds in the edge-cloud setting; this
// bench provides the empirical ground truth for the single-machine core:
// it sweeps Delta, solves each instance both online (Edge-Only on a
// single-edge, cloudless platform) and offline (the exact oracle), and
// reports mean and worst observed ratio against the Delta bound.
//
// Flags: --reps, --seed, --n, --delta=2,8,...
#include <iostream>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "sched/edge_only.hpp"
#include "sched/offline/single_machine.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ecs;
  const Args args = Args::parse(argc, argv);
  bench::apply_log_level(args);
  const int reps = bench::parse_reps(args, 20);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const int n = static_cast<int>(args.get_int("n", 40));
  const std::vector<double> deltas =
      args.get_double_list("delta", {2.0, 4.0, 16.0, 64.0});

  print_bench_header(
      std::cout, "Empirical competitive ratio: stretch-so-far EDF, 1 machine",
      "n = " + std::to_string(n) +
          " jobs, works uniform in [1, Delta], bursty releases; ratio = "
          "online / offline-optimal max-stretch (bound: Delta)",
      reps, seed);

  Table table({"Delta", "mean ratio", "worst ratio", "bound"});
  for (double delta : deltas) {
    Accumulator ratio;
    double worst = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(derive_seed(derive_seed(seed, hash_tag("delta")),
                          static_cast<std::uint64_t>(rep) * 1000 +
                              static_cast<std::uint64_t>(delta)));
      Instance instance;
      instance.platform = Platform({1.0}, 0);
      // Bursty arrivals stress the online algorithm: a fraction of the
      // jobs lands in tight clusters.
      Time t = 0.0;
      for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3)) t += rng.uniform(0.0, 4.0 * delta);
        instance.jobs.push_back(Job{i, 0, rng.uniform(1.0, delta), t,
                                    0.0, 0.0});
      }

      EdgeOnlyPolicy online;
      const SimResult sim = simulate(instance, online);
      const double online_stretch =
          metrics_from_completions(instance, sim.completions).max_stretch;

      std::vector<SmJob> jobs;
      for (const Job& job : instance.jobs) {
        jobs.push_back(SmJob{job.work, job.release, job.work});
      }
      const double offline_stretch =
          optimal_max_stretch_single_machine(jobs).max_stretch;

      const double r = online_stretch / offline_stretch;
      ratio.add(r);
      worst = std::max(worst, r);
    }
    table.add_row({format_double(delta, 2), format_double(ratio.mean(), 4),
                   format_double(worst, 4), format_double(delta, 2)});
    std::cout << "  [done] Delta = " << format_double(delta, 2) << "\n";
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nThe observed worst ratio must stay below the Delta bound "
               "(and in practice sits far below it).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
