// ablations.cpp - The ecs_bench ablation scenarios A1-A6 (ours, not the
// paper's).
//
// ablation_epsilon (A1): SSF-EDF's per-release binary search runs
// log(1/epsilon) feasibility probes (paper section V-D gives the
// complexity as O(n^2 P^c log(1/eps))). Sweeping epsilon exposes the
// trade-off the paper's complexity analysis implies: coarser precision
// saves scheduling time, and beyond some point the target stretch gets
// sloppy enough to hurt the achieved max-stretch.
// Flags: --reps, --seed, --n, --eps=0.2,0.05,...
//
// ablation_reexec (A2): the paper's model forbids migration but allows
// restarting a job from scratch on another resource. Is that freedom worth
// anything? SRPT with re-execution enabled (the paper's variant) against a
// crippled SRPT that never discards progress, across a load sweep.
// Expected: re-execution helps under contention (a queued job can escape
// to an idle resource) at the price of some wasted work.
// Flags: --reps, --seed, --n, --load=0.05,0.25,...
//
// ablation_cloudsize (A3): the paper fixes 20 cloud processors for the
// random scenarios. This sweeps the cloud size from 0 (pure edge) upward
// at fixed load to show where the heuristics stop benefiting from extra
// cloud capacity — the crossover between communication-bound and
// compute-bound operation.
// Flags: --reps, --seed, --n, --clouds=0,5,10,...
//
// ablation_outages (A4): the paper's future-work scenario (section VII):
// cloud processors are dynamically requested by other applications during
// given time intervals and become unavailable. Sweeps the expected
// unavailable fraction and reports the max-stretch of the cloud-using
// heuristics plus Edge-Only (which is immune to outages and becomes the
// better option once the cloud is unreliable enough — the crossover this
// table exposes).
// Flags: --reps, --seed, --n, --fraction=0,0.2,...
//
// ablation_arrivals (A5): the paper draws release dates uniformly over the
// load-controlled horizon. Real edge traffic is rarely uniform: this
// re-runs the Figure 2(a)-style comparison under Poisson (memoryless) and
// bursty (clustered) arrivals at the same mean rate, checking that the
// paper's conclusions — SSF-EDF best, SRPT close, Greedy behind — survive
// the change of arrival process. Bursty arrivals are the stress case:
// entire clusters compete for the cloud at once.
// Flags: --reps, --seed, --n, --load.
//
// ablation_faults (A6): unlike the announced availability windows of A4
// (known to the policies in advance via Instance::cloud_outages), these
// faults are injected by the engine and become visible to a policy only
// through kFault / kRecovery events after the damage is done: a crash
// aborts every activity on the cloud and discards all progress (the
// paper's re-execution rule), a message loss forces the affected transfer
// to restart. Sweeps the per-cloud crash rate and compares each naive
// heuristic against its failover-wrapped counterpart (retry with
// exponential backoff, per-cloud blacklisting, graceful degradation to
// edge-only). At rate 0 the wrapped policies reproduce their base exactly;
// at nonzero rates they should win.
// Flags: --reps, --seed, --n, --rate=0,0.002,..., --repair=100
#include <iostream>
#include <utility>

#include "bench_common.hpp"
#include "sched/factory.hpp"
#include "sched/ssf_edf.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "workloads/load.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

namespace ecs::bench {

namespace {

// run_sweep_point resolves policies by factory name, which has no epsilon
// parameter, so ablation_epsilon drives the replication loop directly.
struct EpsilonRow {
  double eps;
  Accumulator stretch;
  Accumulator wall;
};

}  // namespace

int ablation_epsilon(const Args& args) {
  const int reps = parse_reps(args, 5);
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

  std::vector<EpsilonRow> rows;
  for (double eps : epsilons) {
    EpsilonRow row;
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
  for (const EpsilonRow& row : rows) {
    table.add_row({format_double(row.eps, 6),
                   format_double(row.stretch.mean(), 4),
                   format_double(row.wall.mean(), 4)});
  }
  table.print(std::cout);
  return 0;
}

int ablation_reexec(const Args& args) {
  const CommonOptions options = parse_common(args, 5);
  const int n = static_cast<int>(args.get_int("n", 1000));
  const std::vector<double> loads =
      args.get_double_list("load", {0.05, 0.25, 0.5, 1.0});
  const std::vector<std::string> policies = {"srpt", "srpt-noreexec"};

  args.reject_unread();

  print_bench_header(std::cout, "Ablation A2: value of re-execution (SRPT)",
                     "random instances, n = " + std::to_string(n) +
                         ", CCR = 1, load sweep",
                     options.sweep.replications, options.sweep.base_seed);

  std::vector<FigurePoint> points;
  for (double load : loads) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 1.0;
    cfg.load = load;
    points.emplace_back(format_double(load, 3), random_instances(cfg));
  }
  const std::vector<SweepPointResult> results =
      run_points(options, policies, "load = ", points);
  report_sweep(results, policies, options, "load");
  const int status = write_trace_artifacts(options, policies, points);

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

int ablation_cloudsize(const Args& args) {
  const CommonOptions options = parse_common(args, 5);
  const int n = static_cast<int>(args.get_int("n", 1000));
  const std::vector<std::int64_t> cloud_sizes =
      args.get_int_list("clouds", {0, 2, 5, 10, 20, 40});
  const std::vector<std::string> policies = {"greedy", "srpt", "ssf-edf"};

  args.reject_unread();

  print_bench_header(
      std::cout, "Ablation A3: cloud size sweep",
      "random instances, n = " + std::to_string(n) +
          ", CCR = 1, load 0.25 (load horizon scales with capacity)",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<FigurePoint> points;
  for (std::int64_t clouds : cloud_sizes) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 1.0;
    cfg.load = 0.25;
    cfg.cloud_count = static_cast<int>(clouds);
    points.emplace_back(std::to_string(clouds), random_instances(cfg));
  }
  report_sweep(run_points(options, policies, "clouds = ", points), policies,
               options, "clouds");
  return write_trace_artifacts(options, policies, points);
}

int ablation_outages(const Args& args) {
  const CommonOptions options = parse_common(args, 5);
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

  std::vector<FigurePoint> points;
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
  report_sweep(run_points(options, policies, "fraction = ", points), policies,
               options, "outage-frac");
  return write_trace_artifacts(options, policies, points);
}

int ablation_arrivals(const Args& args) {
  const CommonOptions options = parse_common(args, 5);
  const int n = static_cast<int>(args.get_int("n", 1000));
  const double load = args.get_double("load", 0.2);
  const std::vector<std::string> policies = {"greedy", "srpt", "ssf-edf",
                                             "fcfs"};

  args.reject_unread();

  print_bench_header(
      std::cout, "Ablation A5: arrival-process robustness",
      "random instances, n = " + std::to_string(n) + ", CCR = 1, load " +
          format_double(load, 3) +
          "; same mean rate under uniform / Poisson / bursty releases",
      options.sweep.replications, options.sweep.base_seed);

  const std::vector<std::pair<std::string, ReleaseProcess>> processes = {
      {"uniform", ReleaseProcess::kUniform},
      {"poisson", ReleaseProcess::kPoisson},
      {"bursty", ReleaseProcess::kBursty},
  };

  std::vector<FigurePoint> points;
  for (const auto& [label, process] : processes) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 1.0;
    cfg.load = load;
    cfg.release_process = process;
    points.emplace_back(label, random_instances(cfg));
  }
  report_sweep(run_points(options, policies, "", points), policies, options,
               "arrivals");
  return write_trace_artifacts(options, policies, points);
}

int ablation_faults(const Args& args) {
  const CommonOptions options = parse_common(args, 5);
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

  std::vector<FigurePoint> points;
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
    points.emplace_back(format_double(rate, 4), random_instances(cfg),
                        std::move(faults));
  }
  report_sweep(run_points(options, policies, "rate = ", points), policies,
               options, "crash-rate");
  return write_trace_artifacts(options, policies, points);
}

}  // namespace ecs::bench
