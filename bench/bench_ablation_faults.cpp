// bench_ablation_faults.cpp - Ablation A6: unannounced faults and failover.
//
// Unlike the announced availability windows of A4 (known to the policies in
// advance via Instance::cloud_outages), the faults here are injected by the
// engine and become visible to a policy only through kFault / kRecovery
// events after the damage is done: a crash aborts every activity on the
// cloud and discards all progress (the paper's re-execution rule), a
// message loss forces the affected transfer to restart. The ablation sweeps
// the per-cloud crash rate and compares each naive heuristic against its
// failover-wrapped counterpart (retry with exponential backoff, per-cloud
// blacklisting, graceful degradation to edge-only). At rate 0 the wrapped
// policies reproduce their base exactly; at nonzero rates they should win.
//
// Flags: --reps, --seed, --n, --rate=0,0.002,..., --repair=100
#include <iostream>
#include <utility>

#include "bench_common.hpp"
#include "sched/factory.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "workloads/load.hpp"
#include "workloads/random_instances.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ecs;
  const Args args = Args::parse(argc, argv);
  const bench::CommonOptions options = bench::parse_common(args, 5);
  const int n = static_cast<int>(args.get_int("n", 600));
  const double mean_repair = args.get_double("repair", 100.0);
  const std::vector<double> rates =
      args.get_double_list("rate", {0.0, 0.002, 0.005, 0.01});
  const std::vector<std::string> policies = {
      "greedy",  "failover-greedy",  "srpt",
      "failover-srpt", "ssf-edf", "failover-ssf-edf"};

  args.reject_unread();

  print_bench_header(
      std::cout, "Ablation A6: unannounced faults + failover",
      "random instances, n = " + std::to_string(n) +
          ", CCR = 0.5, load 0.25; per-cloud crash rate as given, mean "
          "repair " + format_double(mean_repair, 1) +
          "; faults are unannounced (engine-injected)",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<bench::FigurePoint> points;
  for (double rate : rates) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 0.5;
    cfg.load = 0.25;
    FaultPlanFactory faults;
    if (rate > 0.0) {
      faults = [rate, mean_repair, cfg](const Instance& instance,
                                        std::uint64_t seed) {
        double total_work = 0.0;
        for (const Job& job : instance.jobs) total_work += job.work;
        FaultConfig fault_cfg;
        fault_cfg.crash_rate = rate;
        fault_cfg.mean_repair = mean_repair;
        fault_cfg.loss_rate = rate;
        // Cover the full busy period with margin.
        fault_cfg.horizon = 2.0 * release_horizon(
            total_work, instance.platform.total_speed(), cfg.load);
        // Derive the fault stream from a distinct sub-seed so the plan is
        // independent of the instance draw but still replayable.
        Rng rng(derive_seed(seed, hash_tag("faults")));
        return make_fault_plan(instance.platform.cloud_count(), fault_cfg,
                               rng);
      };
    }
    points.emplace_back(format_double(rate, 4), bench::random_instances(cfg),
                        std::move(faults));
  }
  bench::report_sweep(bench::run_points(options, policies, "rate = ", points),
                      policies, options, "crash-rate");
  return bench::write_trace_artifacts(options, policies, points);
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
