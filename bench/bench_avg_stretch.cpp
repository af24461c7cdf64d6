// bench_avg_stretch.cpp - Average (mean) stretch across heuristics.
//
// The paper optimizes the max-stretch but reviews the average-stretch
// literature (footnote 2, related work): SRPT is O(1)-competitive for the
// *average* stretch [Muthukrishnan et al.], while no such guarantee exists
// for its max-stretch. This bench shows that trade-off empirically: on the
// mean-stretch metric SRPT and SSF-EDF swap closeness, and FCFS's
// length-blindness is far less visible than on the max — the worst-hit
// jobs vanish into the average, which is exactly why the paper argues max
// is the fairness metric.
//
// Flags: --reps, --seed, --n, --load=...
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
  const std::vector<double> loads =
      args.get_double_list("load", {0.05, 0.25, 0.5});
  const std::vector<std::string> policies = {"greedy", "srpt", "ssf-edf",
                                             "fcfs"};

  print_bench_header(
      std::cout, "Average stretch across heuristics",
      "random instances, n = " + std::to_string(n) +
          ", CCR = 1; mean stretch (top) vs max stretch (bottom) on the "
          "same runs",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<bench::FigurePoint> points;
  for (double load : loads) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 1.0;
    cfg.load = load;
    points.emplace_back(format_double(load, 3), bench::random_instances(cfg));
  }
  const std::vector<SweepPointResult> results =
      bench::run_points(options, policies, "load = ", points);

  ReportOptions report_options;
  report_options.x_label = "load";
  report_options.show_stddev = options.show_stddev;
  report_options.metric = ReportMetric::kMeanStretch;
  const Table mean_table = make_report(results, policies, report_options);
  std::cout << "mean stretch\n";
  mean_table.print(std::cout);
  report_options.metric = ReportMetric::kMaxStretch;
  const Table max_table = make_report(results, policies, report_options);
  std::cout << "\nmax stretch (same runs)\n";
  max_table.print(std::cout);
  bench::write_csv(options, {&mean_table, &max_table});
  return bench::write_trace_artifacts(options, policies, points);
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
