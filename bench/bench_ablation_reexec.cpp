// bench_ablation_reexec.cpp - Ablation A2: the value of re-execution.
//
// The paper's model forbids migration but allows restarting a job from
// scratch on another resource. Is that freedom worth anything? This
// ablation compares SRPT with re-execution enabled (the paper's variant)
// against a crippled SRPT that never discards progress, across a load
// sweep. Expected: re-execution helps under contention (a queued job can
// escape to an idle resource) at the price of some wasted work.
//
// Flags: --reps, --seed, --n, --load=0.05,0.25,...
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
      args.get_double_list("load", {0.05, 0.25, 0.5, 1.0});
  const std::vector<std::string> policies = {"srpt", "srpt-noreexec"};

  print_bench_header(std::cout, "Ablation A2: value of re-execution (SRPT)",
                     "random instances, n = " + std::to_string(n) +
                         ", CCR = 1, load sweep",
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
  bench::report_sweep(results, policies, options, "load");
  const int status = bench::write_trace_artifacts(options, policies, points);

  std::cout << "re-executions per instance (mean)\n";
  Table table({"load", "srpt", "srpt-noreexec"});
  for (const SweepPointResult& point : results) {
    table.add_row({point.label,
                   format_double(point.policy("srpt").reassignments.mean(), 1),
                   format_double(
                       point.policy("srpt-noreexec").reassignments.mean(), 1)});
  }
  table.print(std::cout);
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
