// ehealth.cpp - Fairness under bursty e-health monitoring traffic.
//
// An e-health gateway aggregates wearable sensors. Most jobs are tiny
// (heartbeat anomaly checks) but occasionally a large job arrives (a full
// ECG-batch analysis). Max-stretch is precisely the fairness metric for
// this mix: a schedule optimizing only response time lets the big jobs
// starve the small ones. This example builds such a bimodal, bursty
// workload by hand and contrasts FCFS (length-blind) with the paper's
// stretch-aware heuristics — reproducing, on a realistic scenario, the
// paper's introductory 1h/10h example of why stretch matters.
//
// Run:  ./ehealth [--gateways=4] [--cloud=2] [--bursts=10] [--seed=3]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "exp/runner.hpp"
#include "sched/factory.hpp"
#include "util/args.hpp"
#include "workloads/load.hpp"

namespace {

ecs::Instance make_ehealth_instance(int gateways, int cloud, int bursts,
                                    ecs::Rng& rng) {
  ecs::Instance instance;
  // Gateways are small ARM boxes: speed 0.25.
  instance.platform = ecs::Platform(std::vector<double>(gateways, 0.25),
                                    cloud);
  ecs::JobId next_id = 0;
  double t = 0.0;
  for (int b = 0; b < bursts; ++b) {
    // Burst start: a batch job plus a flurry of small checks, all released
    // within a second on a random gateway.
    t += rng.uniform(30.0, 60.0);
    const auto origin =
        static_cast<ecs::EdgeId>(rng.uniform_int(0, gateways - 1));
    // One heavy ECG batch: ~50 units of work, sizeable transfer.
    instance.jobs.push_back(ecs::Job{next_id++, origin,
                                     rng.uniform(40.0, 60.0), t,
                                     rng.uniform(4.0, 6.0),
                                     rng.uniform(1.0, 2.0)});
    // A dozen small anomaly checks: ~0.5 units each, cheap transfers.
    const int small = static_cast<int>(rng.uniform_int(8, 16));
    for (int s = 0; s < small; ++s) {
      instance.jobs.push_back(ecs::Job{next_id++, origin,
                                       rng.uniform(0.2, 1.0),
                                       t + rng.uniform(0.0, 1.0),
                                       rng.uniform(0.05, 0.2),
                                       rng.uniform(0.05, 0.2)});
    }
  }
  return instance;
}

}  // namespace

int main(int argc, char** argv) {
  const ecs::Args args = ecs::Args::parse(argc, argv);
  const int gateways = static_cast<int>(args.get_int("gateways", 4));
  const int cloud = static_cast<int>(args.get_int("cloud", 2));
  const int bursts = static_cast<int>(args.get_int("bursts", 10));
  ecs::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 3)));
  try {
    args.reject_unread();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const ecs::Instance instance =
      make_ehealth_instance(gateways, cloud, bursts, rng);
  std::printf("e-health: %d gateways, %d cloud processors, %zu jobs in %d "
              "bursts (bimodal sizes)\n\n",
              gateways, cloud, instance.jobs.size(), bursts);

  std::printf("%-10s %-12s %-12s %-14s\n", "policy", "max-stretch",
              "mean-stretch", "max-response");
  for (const std::string& name :
       {std::string("fcfs"), std::string("greedy"), std::string("srpt"),
        std::string("ssf-edf")}) {
    ecs::RunOptions options;
    options.validate = true;
    const ecs::RunOutcome outcome = ecs::run_policy(instance, name, options);
    std::printf("%-10s %-12.3f %-12.3f %-14.3f\n", name.c_str(),
                outcome.metrics.max_stretch, outcome.metrics.mean_stretch,
                outcome.metrics.max_response);
  }
  std::printf(
      "\nFCFS lets the heavy ECG batches delay the tiny anomaly checks —\n"
      "their stretch explodes even though absolute responses look fine.\n"
      "The stretch-aware heuristics keep small jobs responsive.\n");
  return 0;
}
