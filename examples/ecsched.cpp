// ecsched.cpp - Command-line edge-cloud scheduling simulator.
//
// The library packaged as a tool: load (or generate) an instance, run a
// heuristic through the validated simulator, and inspect the result as a
// summary, an ASCII Gantt chart, a per-job CSV, or a JSON schedule dump.
//
// Usage:
//   ecsched --instance=path.csv --policy=ssf-edf [--gantt] [--json=out.json]
//           [--per-job=out.csv] [--save-instance=copy.csv]
//   ecsched --generate=random --n=200 --ccr=1 --load=0.2 --seed=7 ...
//   ecsched --generate=kang --n=500 --edges=20 --clouds=10 ...
//
// Exit code 0 on success, 1 on bad usage (a flag the chosen mode does not
// read included), 2 when the produced schedule
// fails validation (which would indicate a library bug — please report).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>

#include "core/energy.hpp"
#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "exp/gantt.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "workloads/kang_instances.hpp"
#include "workloads/random_instances.hpp"
#include "workloads/trace_io.hpp"

namespace {

void print_usage() {
  std::cout <<
      "ecsched - edge-cloud max-stretch scheduling simulator\n\n"
      "Input (one of):\n"
      "  --instance=FILE     load an instance CSV (see trace_io.hpp)\n"
      "  --generate=random   random scenario (--n, --ccr, --load, --seed)\n"
      "  --generate=kang     Kang scenario (--n, --edges, --clouds, --load,\n"
      "                      --seed)\n\n"
      "Scheduling:\n"
      "  --policy=NAME       edge-only | greedy | srpt | ssf-edf | fcfs\n"
      "                      (default ssf-edf)\n"
      "  --compare           run every policy and print a comparison\n\n"
      "Output:\n"
      "  --gantt             ASCII Gantt chart (--gantt-width=N)\n"
      "  --json=FILE         JSON schedule dump\n"
      "  --per-job=FILE      per-job metrics CSV\n"
      "  --energy            include an energy breakdown in the summary\n"
      "  --save-instance=F   write the (generated) instance as CSV\n";
}

}  // namespace

int main(int argc, char** argv) {
  const ecs::Args args = ecs::Args::parse(argc, argv);
  if (args.has("help")) {
    print_usage();
    return 0;
  }

  // Every flag the chosen input and mode use is read before any work, so a
  // flag that nothing reads (a typo, or one this mode ignores) fails first.
  std::function<ecs::Instance()> make_instance;
  std::optional<std::string> save_path;
  bool compare = false;
  std::string policy_name;
  bool energy = false;
  std::optional<int> gantt_width;  // set by --gantt
  std::optional<std::string> json_path;
  std::optional<std::string> per_job_path;
  try {
    if (args.has("instance")) {
      make_instance = [path = args.get_or("instance", "")] {
        return ecs::load_instance_file(path);
      };
    } else if (const std::string generate = args.get_or("generate", "");
               generate == "random") {
      ecs::RandomInstanceConfig cfg;
      cfg.n = static_cast<int>(args.get_int("n", 200));
      cfg.ccr = args.get_double("ccr", 1.0);
      cfg.load = args.get_double("load", 0.2);
      const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
      make_instance = [cfg, seed] {
        ecs::Rng rng(seed);
        return make_random_instance(cfg, rng);
      };
    } else if (generate == "kang") {
      ecs::KangInstanceConfig cfg;
      cfg.n = static_cast<int>(args.get_int("n", 500));
      cfg.edge_count = static_cast<int>(args.get_int("edges", 20));
      cfg.cloud_count = static_cast<int>(args.get_int("clouds", 10));
      cfg.load = args.get_double("load", 0.05);
      const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
      make_instance = [cfg, seed] {
        ecs::Rng rng(seed);
        return make_kang_instance(cfg, rng);
      };
    } else {
      print_usage();
      return 1;
    }
    save_path = args.get("save-instance");
    compare = args.has("compare");
    if (!compare) {
      policy_name = args.get_or("policy", "ssf-edf");
      energy = args.has("energy");
      if (args.has("gantt")) {
        gantt_width = static_cast<int>(args.get_int("gantt-width", 100));
      }
      json_path = args.get("json");
      per_job_path = args.get("per-job");
    }
    args.reject_unread();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  ecs::Instance instance;
  try {
    instance = make_instance();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (save_path) ecs::save_instance_file(*save_path, instance);

  if (compare) {
    // Run every registered policy on the same instance and tabulate.
    std::printf("%-10s %-12s %-12s %-10s %-9s %-12s\n", "policy",
                "max-stretch", "mean-stretch", "p99", "re-exec",
                "active J/job");
    for (const std::string& name : ecs::policy_names()) {
      try {
        const auto policy = ecs::make_policy(name);
        const ecs::SimResult result = ecs::simulate(instance, *policy);
        ecs::require_valid_schedule(instance, result.schedule);
        const ecs::ScheduleMetrics m =
            compute_metrics(instance, result.schedule);
        const ecs::EnergyBreakdown e =
            compute_energy(instance, result.schedule);
        const double active =
            (e.edge_compute + e.cloud_compute + e.communication) /
            std::max(1, instance.job_count());
        std::printf("%-10s %-12.3f %-12.3f %-10.3f %-9llu %-12.3f\n",
                    name.c_str(), m.max_stretch, m.mean_stretch,
                    m.stretch_percentile(0.99),
                    static_cast<unsigned long long>(
                        result.stats.reassignments),
                    active);
      } catch (const std::exception& e) {
        std::printf("%-10s failed: %s\n", name.c_str(), e.what());
      }
    }
    return 0;
  }

  try {
    const auto policy = ecs::make_policy(policy_name);
    const ecs::SimResult result = ecs::simulate(instance, *policy);
    const auto violations =
        ecs::validate_schedule(instance, result.schedule);
    if (!violations.empty()) {
      std::cerr << "BUG: schedule failed validation:\n";
      for (const auto& v : violations) {
        std::cerr << "  " << to_string(v) << "\n";
      }
      return 2;
    }
    const ecs::ScheduleMetrics metrics =
        compute_metrics(instance, result.schedule);

    std::cout << "policy        : " << policy->name() << "\n"
              << "jobs          : " << instance.job_count() << "\n"
              << "platform      : " << instance.platform.edge_count()
              << " edge / " << instance.platform.cloud_count()
              << " cloud processors\n"
              << "max stretch   : " << metrics.max_stretch << "\n"
              << "mean stretch  : " << metrics.mean_stretch << "\n"
              << "makespan      : " << metrics.makespan << "\n"
              << "re-executions : " << metrics.reexecutions << "\n"
              << "events        : " << result.stats.events << "\n";

    if (energy) {
      const ecs::EnergyBreakdown e =
          compute_energy(instance, result.schedule);
      std::cout << "energy [J]    : total " << e.total << " = edge "
                << e.edge_compute << " + cloud " << e.cloud_compute
                << " + radio " << e.communication << " + idle " << e.idle
                << " (wasted in re-executions: " << e.wasted << ")\n";
    }

    if (gantt_width) {
      ecs::GanttOptions gantt;
      gantt.width = *gantt_width;
      std::cout << "\n" << render_gantt(instance, result.schedule, gantt);
    }
    if (json_path) {
      std::ofstream out(*json_path);
      if (!out) {
        std::cerr << "cannot open json output\n";
        return 1;
      }
      write_schedule_json(out, instance, result.schedule, metrics);
    }
    if (per_job_path) {
      std::ofstream out(*per_job_path);
      if (!out) {
        std::cerr << "cannot open per-job output\n";
        return 1;
      }
      save_metrics_csv(out, instance, result.schedule, metrics);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
