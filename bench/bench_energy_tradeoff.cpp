// bench_energy_tradeoff.cpp - Energy/stretch trade-off across heuristics.
//
// The paper's introduction names energy consumption as the other
// first-class criterion of edge-cloud platforms and defers multi-objective
// optimization to future work. This bench provides the accounting ground
// truth for that discussion: for each heuristic and CCR it reports the
// achieved max-stretch next to the active energy per job (compute + radio,
// split by origin) and the energy wasted in re-executions. The expected
// picture: Edge-Only minimizes energy (cheap local CPUs, no radios) at a
// catastrophic stretch cost when CCR is low; the cloud-using heuristics
// buy their stretch with cloud wattage and radio time.
//
// Flags: --reps, --seed, --n, --ccr=0.1,1,...
#include <iostream>

#include "bench_common.hpp"
#include "core/energy.hpp"
#include "core/metrics.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace ecs;
  const Args args = Args::parse(argc, argv);
  bench::apply_log_level(args);
  const int reps = bench::parse_reps(args, 5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const int n = static_cast<int>(args.get_int("n", 600));
  const std::vector<double> ccrs = args.get_double_list("ccr", {0.1, 1.0, 5.0});
  const std::vector<std::string> policies = paper_policy_names();

  args.reject_unread();

  print_bench_header(
      std::cout, "Energy/stretch trade-off",
      "random instances, n = " + std::to_string(n) +
          ", load 0.25; active energy = compute + radio Joules per job "
          "(idle excluded); waste = energy in abandoned runs",
      reps, seed);

  for (double ccr : ccrs) {
    Table table({"policy", "max-stretch", "active J/job", "edge%", "cloud%",
                 "radio%", "waste%"});
    for (const std::string& name : policies) {
      Accumulator stretch;
      Accumulator active;
      Accumulator edge_part;
      Accumulator cloud_part;
      Accumulator radio_part;
      Accumulator waste_part;
      for (int rep = 0; rep < reps; ++rep) {
        RandomInstanceConfig cfg;
        cfg.n = n;
        cfg.ccr = ccr;
        cfg.load = 0.25;
        Rng rng(derive_seed(derive_seed(seed, hash_tag(name)),
                            static_cast<std::uint64_t>(rep)));
        const Instance instance = make_random_instance(cfg, rng);
        const auto policy = make_policy(name);
        const SimResult sim = simulate(instance, *policy);
        const ScheduleMetrics m = compute_metrics(instance, sim.schedule);
        const EnergyBreakdown e = compute_energy(instance, sim.schedule);
        const double act =
            e.edge_compute + e.cloud_compute + e.communication;
        stretch.add(m.max_stretch);
        active.add(act / n);
        edge_part.add(100.0 * e.edge_compute / act);
        cloud_part.add(100.0 * e.cloud_compute / act);
        radio_part.add(100.0 * e.communication / act);
        waste_part.add(100.0 * e.wasted / act);
      }
      table.add_row({name, format_double(stretch.mean(), 3),
                     format_double(active.mean(), 3),
                     format_double(edge_part.mean(), 1),
                     format_double(cloud_part.mean(), 1),
                     format_double(radio_part.mean(), 1),
                     format_double(waste_part.mean(), 2)});
    }
    std::cout << "CCR = " << format_double(ccr, 3) << "\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
