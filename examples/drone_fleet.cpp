// drone_fleet.cpp - Offloading vision workloads from a drone fleet.
//
// The paper's introduction motivates edge-cloud scheduling with autonomous
// vehicles and flying drones. This example models a fleet of drones whose
// on-board computers (slow, battery-bound edge processors) produce
// inference jobs — obstacle maps, detections — that can be offloaded over
// LTE to a ground-station cloud. It generates a Kang-style workload,
// runs all four paper heuristics plus FCFS on the very same instance, and
// prints the comparison: max/mean stretch, re-executions and scheduling
// time.
//
// Run:  ./drone_fleet [--drones=12] [--cloud=4] [--jobs=300] [--load=0.3]
//                     [--seed=7]
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "sched/factory.hpp"
#include "util/args.hpp"
#include "workloads/kang_instances.hpp"

int main(int argc, char** argv) {
  const ecs::Args args = ecs::Args::parse(argc, argv);

  ecs::KangInstanceConfig cfg;
  cfg.edge_count = static_cast<int>(args.get_int("drones", 12));
  cfg.cloud_count = static_cast<int>(args.get_int("cloud", 4));
  cfg.n = static_cast<int>(args.get_int("jobs", 300));
  cfg.load = args.get_double("load", 0.3);
  // Every drone uses an embedded GPU and an LTE link to the ground
  // station: collapse all channel means to LTE and all compute speeds to
  // GPU so the cycling profile assignment yields a homogeneous fleet.
  cfg.randomize_profiles = false;
  cfg.wifi_up_mean = cfg.lte_up_mean;
  cfg.threeg_up_mean = cfg.lte_up_mean;
  cfg.cpu_speed = cfg.gpu_speed;

  ecs::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));
  try {
    args.reject_unread();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const ecs::Instance instance = ecs::make_kang_instance(cfg, rng);

  std::printf("Drone fleet: %d drones (GPU, LTE), %d ground-station cloud "
              "processors, %d jobs, load %.2f\n\n",
              cfg.edge_count, cfg.cloud_count, cfg.n, cfg.load);

  std::printf("%-10s %-12s %-12s %-8s %-12s\n", "policy", "max-stretch",
              "mean-stretch", "re-exec", "sched-time");
  for (const std::string& name : ecs::policy_names()) {
    ecs::RunOptions options;
    options.validate = true;  // every schedule is checked against the model
    const ecs::RunOutcome outcome =
        ecs::run_policy(instance, name, options);
    std::printf("%-10s %-12.3f %-12.3f %-8llu %.4fs\n", name.c_str(),
                outcome.metrics.max_stretch, outcome.metrics.mean_stretch,
                static_cast<unsigned long long>(outcome.stats.reassignments),
                outcome.wall_seconds);
  }
  std::printf("\nAll schedules were validated against the formal model of "
              "the paper (section III-B).\n");
  return 0;
}
