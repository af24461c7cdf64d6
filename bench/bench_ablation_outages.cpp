// bench_ablation_outages.cpp - Ablation A4: cloud availability windows.
//
// Implements the paper's future-work scenario (section VII): cloud
// processors are dynamically requested by other applications during given
// time intervals and become unavailable. The ablation sweeps the expected
// unavailable fraction and reports the max-stretch of the cloud-using
// heuristics plus Edge-Only (which is immune to outages and becomes the
// better option once the cloud is unreliable enough — the crossover this
// table exposes).
//
// Flags: --reps, --seed, --n, --fraction=0,0.2,...
#include <iostream>

#include "bench_common.hpp"
#include "sched/factory.hpp"
#include "util/rng.hpp"
#include "workloads/load.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ecs;
  const Args args = Args::parse(argc, argv);
  const bench::CommonOptions options = bench::parse_common(args, 5);
  const int n = static_cast<int>(args.get_int("n", 1000));
  const std::vector<double> fractions =
      args.get_double_list("fraction", {0.0, 0.1, 0.25, 0.5, 0.75});
  const std::vector<std::string> policies = {"edge-only", "greedy", "srpt",
                                             "ssf-edf"};

  args.reject_unread();

  print_bench_header(
      std::cout, "Ablation A4: cloud availability windows",
      "random instances, n = " + std::to_string(n) +
          ", CCR = 0.5, load 0.25; clouds unavailable for the given "
          "fraction of time",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<bench::FigurePoint> points;
  for (double fraction : fractions) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 0.5;
    cfg.load = 0.25;
    const InstanceFactory factory = [cfg, fraction](std::uint64_t seed) {
      Rng rng(seed);
      Instance instance = make_random_instance(cfg, rng);
      if (fraction > 0.0) {
        double total_work = 0.0;
        for (const Job& job : instance.jobs) total_work += job.work;
        OutageConfig outage_cfg;
        outage_cfg.fraction = fraction;
        outage_cfg.mean_duration = 50.0;
        // Cover the full busy period with margin.
        outage_cfg.horizon =
            2.0 * release_horizon(total_work,
                                  instance.platform.total_speed(), cfg.load);
        instance.cloud_outages = make_cloud_outages(
            instance.platform.cloud_count(), outage_cfg, rng);
      }
      return instance;
    };
    points.emplace_back(format_double(fraction, 3), factory);
  }
  bench::report_sweep(
      bench::run_points(options, policies, "fraction = ", points), policies,
      options, "outage-frac");
  return bench::write_trace_artifacts(options, policies, points);
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
