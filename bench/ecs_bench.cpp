// ecs_bench.cpp - One program for the paper's figures, the ablations and
// the other sweep studies: `ecs_bench <scenario> [flags]`.
//
// The table below names every scenario and its run function (figures.cpp,
// ablations.cpp, studies.cpp). Each scenario reads its own flags and the
// shared ones of bench_common.hpp, and rejects any other flag before any
// work. Without an argument the program lists the scenario names, one per
// line; an unknown name prints an error and the list and exits 1.
#include <iostream>
#include <string>

#include "bench_common.hpp"

namespace {

using ecs::Args;
namespace bench = ecs::bench;

struct Scenario {
  const char* name;
  int (*run)(const Args& args);
};

constexpr Scenario kScenarios[] = {
    {"fig2a_random_ccr", bench::fig2a_random_ccr},
    {"fig2b_random_load", bench::fig2b_random_load},
    {"fig2c_kang_20edges",
     [](const Args& args) {
       return bench::fig2_kang(
           args, 20, "Figure 2(c): Kang instances, max-stretch vs n");
     }},
    {"fig2d_kang_100edges",
     [](const Args& args) {
       return bench::fig2_kang(
           args, 100,
           "Figure 2(d): Kang instances, max-stretch vs n (100 edges)");
     }},
    {"ablation_epsilon", bench::ablation_epsilon},
    {"ablation_reexec", bench::ablation_reexec},
    {"ablation_cloudsize", bench::ablation_cloudsize},
    {"ablation_outages", bench::ablation_outages},
    {"ablation_arrivals", bench::ablation_arrivals},
    {"ablation_faults", bench::ablation_faults},
    {"competitive_ratio", bench::competitive_ratio},
    {"energy_tradeoff", bench::energy_tradeoff},
    {"avg_stretch", bench::avg_stretch},
    {"overload", bench::overload},
};

void print_names(std::ostream& out) {
  for (const Scenario& scenario : kScenarios) out << scenario.name << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main([&] {
    if (argc < 2) {
      print_names(std::cout);
      return 0;
    }
    const std::string name = argv[1];
    for (const Scenario& scenario : kScenarios) {
      // The scenario parses the flags after its name.
      if (name == scenario.name) {
        return scenario.run(Args::parse(argc - 1, argv + 1));
      }
    }
    std::cerr << "error: unknown scenario '" << name
              << "'; the scenarios are:\n";
    print_names(std::cerr);
    return 1;
  });
}
