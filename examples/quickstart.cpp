// quickstart.cpp - Minimal tour of the edgecloud-stretch public API.
//
// Builds a small edge-cloud platform, releases a handful of jobs, runs the
// paper's SSF-EDF heuristic through the event-driven simulator, validates
// the resulting schedule against the formal model, and prints per-job
// stretches.
//
// Run:  ./quickstart [--policy=ssf-edf]
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "exp/runner.hpp"
#include "sched/factory.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const ecs::Args args = ecs::Args::parse(argc, argv);
  const std::string policy_name = args.get_or("policy", "ssf-edf");
  try {
    args.reject_unread();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // A platform with two edge processors (a slow sensor node at speed 0.2
  // and a faster gateway at speed 0.5) and two cloud processors (speed 1).
  ecs::Instance instance;
  instance.platform = ecs::Platform({0.2, 0.5}, 2);

  // Six jobs; {id, origin, work, release, up, down}.
  instance.jobs = {
      {0, 0, 4.0, 0.0, 1.0, 0.5},   // heavy job from the slow node
      {1, 0, 0.5, 1.0, 2.0, 2.0},   // tiny job, expensive to ship
      {2, 1, 6.0, 2.0, 0.5, 0.5},   // heavy job from the gateway
      {3, 1, 1.0, 2.5, 0.2, 0.2},   // small job, cheap to ship
      {4, 0, 3.0, 4.0, 1.0, 1.0},
      {5, 1, 2.0, 5.0, 0.3, 0.3},
  };
  ecs::require_valid_instance(instance);

  // Run the heuristic through the simulator, with validation enabled.
  ecs::RunOptions options;
  options.validate = true;
  const ecs::RunOutcome outcome =
      ecs::run_policy(instance, policy_name, options);

  std::printf("policy: %s\n", outcome.policy.c_str());
  std::printf("schedule valid: %s\n", outcome.validated ? "yes" : "no");
  std::printf("%-4s %-8s %-10s %-10s %-8s\n", "job", "best", "completion",
              "response", "stretch");
  for (const ecs::JobMetrics& jm : outcome.metrics.per_job) {
    std::printf("J%-3d %-8.3f %-10.3f %-10.3f %-8.3f\n", jm.id, jm.best_time,
                jm.completion, jm.response, jm.stretch);
  }
  std::printf("\nmax stretch : %.4f\n", outcome.metrics.max_stretch);
  std::printf("mean stretch: %.4f\n", outcome.metrics.mean_stretch);
  std::printf("makespan    : %.4f\n", outcome.metrics.makespan);
  std::printf("events      : %llu, re-executions: %llu\n",
              static_cast<unsigned long long>(outcome.stats.events),
              static_cast<unsigned long long>(outcome.stats.reassignments));
  return 0;
}
