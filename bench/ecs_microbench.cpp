// ecs_microbench.cpp - The main of the google-benchmark program: every
// series of micro_exec_times.cpp, micro_batch.cpp, micro_engine.cpp and
// micro_policy.cpp runs here (select them with --benchmark_filter).
//
// Flags besides the usual google-benchmark ones:
//   --json-out=PATH           compact JSON summary (CompactJsonReporter)
//   --profile-out=PATH        self-profiled engine run (micro_engine.cpp's
//                             run_engine_profile), also embedded in the
//                             summary
//   --profile-perfetto=PATH   that profile rendered as a Perfetto trace
//   --log-level=L             stderr log threshold
//
// The summary:
//   {"build": {compiler, build_type, flags, git_sha, native, ipo,
//              sanitize},
//    "profile": {...},   // only with --profile-out / --profile-perfetto
//    "rows": [{"name": ..., "real_time_ms": ..., "<rate>": ...,
//              "<per>": ...}]}
// The build block records the provenance of the binary so the regression
// checker (tools/check_bench_regression.py) can refuse to compare runs
// from mismatched build configurations. A row carries each rate counter it
// publishes with its derived per-item nanoseconds: "events_per_s" /
// "per_event_ns" (engine series), "decisions_per_s" / "per_decision_ns"
// (policy series) and "worlds_per_s" / "per_world_ns" (batch series).
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

// Build provenance, injected by bench/CMakeLists.txt; the fallbacks cover
// hand-compiled builds.
#ifndef ECS_BENCH_BUILD_TYPE
#define ECS_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ECS_BENCH_FLAGS
#define ECS_BENCH_FLAGS "unknown"
#endif
#ifndef ECS_BENCH_GIT_SHA
#define ECS_BENCH_GIT_SHA "unknown"
#endif
#ifndef ECS_BENCH_NATIVE
#define ECS_BENCH_NATIVE 0
#endif
#ifndef ECS_BENCH_IPO
#define ECS_BENCH_IPO 0
#endif
#ifndef ECS_BENCH_SANITIZE
#define ECS_BENCH_SANITIZE 0
#endif

namespace ecs::bench {
namespace {

/// Compiler name + version string of the binary itself. Clang first: it
/// also defines __GNUC__ in GNU mode.
[[nodiscard]] std::string compiler_version() {
#if defined(__clang_version__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The rate counters a row may publish, each with its per-item field.
constexpr const char* kRates[][2] = {
    {"events_per_s", "per_event_ns"},
    {"decisions_per_s", "per_decision_ns"},
    {"worlds_per_s", "per_world_ns"},
};

/// Console reporter that also renders each finished run as a row of the
/// compact JSON summary. Subclassing the console reporter keeps the normal
/// terminal output while avoiding the library's file-reporter path (which
/// insists on --benchmark_out).
class CompactJsonReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      // Per-iteration wall time in milliseconds, independent of the
      // benchmark's display unit.
      const double real_time_ms =
          run.iterations > 0 ? run.real_accumulated_time * 1e3 /
                                   static_cast<double>(run.iterations)
                             : 0.0;
      std::ostringstream row;
      row << "{\"name\": \"" << run.benchmark_name()
          << "\", \"real_time_ms\": " << real_time_ms;
      for (const auto& [rate, per_item] : kRates) {
        const auto it = run.counters.find(rate);
        if (it == run.counters.end() || it->second.value <= 0.0) continue;
        row << ", \"" << rate << "\": " << it->second.value << ", \""
            << per_item << "\": " << 1e9 / it->second.value;
      }
      row << "}";
      rows_.push_back(row.str());
    }
  }

  void write(std::ostream& os) const {
    os << "{\n  \"build\": {\"compiler\": \"" << compiler_version()
       << "\", \"build_type\": \"" << ECS_BENCH_BUILD_TYPE
       << "\", \"flags\": \"" << ECS_BENCH_FLAGS << "\", \"git_sha\": \""
       << ECS_BENCH_GIT_SHA << "\", \"native\": "
       << (ECS_BENCH_NATIVE ? "true" : "false")
       << ", \"ipo\": " << (ECS_BENCH_IPO ? "true" : "false")
       << ", \"sanitize\": " << (ECS_BENCH_SANITIZE ? "true" : "false")
       << "},\n";
    if (!profile_json_.empty()) {
      os << "  \"profile\": " << profile_json_ << ",\n";
    }
    os << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << "    " << rows_[i] << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
  }

  /// Attaches a pre-rendered JSON object (an engine ProfileReport) emitted
  /// as a top-level "profile" key next to "build". The regression checker
  /// ignores it; humans and trace_inspect --profile read it.
  void set_profile_json(std::string json) { profile_json_ = std::move(json); }

 private:
  std::string profile_json_;
  std::vector<std::string> rows_;
};

}  // namespace
}  // namespace ecs::bench

int main(int argc, char** argv) {
  using namespace ecs::bench;
  return guarded_main([&] {
    // Strip this program's own flags before benchmark::Initialize rejects
    // them.
    apply_log_level_argv(argc, argv);
    const std::string json_path = extract_arg(argc, argv, "--json-out=");
    const std::string profile_path =
        extract_arg(argc, argv, "--profile-out=");
    const std::string profile_perfetto =
        extract_arg(argc, argv, "--profile-perfetto=");
    CompactJsonReporter reporter;
    if (!profile_path.empty() || !profile_perfetto.empty()) {
      reporter.set_profile_json(
          run_engine_profile(profile_path, profile_perfetto));
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "cannot write benchmark JSON to " << json_path << "\n";
        return 1;
      }
      reporter.write(out);
      std::cout << "benchmark JSON -> " << json_path << "\n";
    }
    return 0;
  });
}
