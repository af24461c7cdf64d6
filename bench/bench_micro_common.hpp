// bench_micro_common.hpp - Shared plumbing for the google-benchmark micro
// binaries (bench_engine_micro, bench_policy_micro).
//
// Kept separate from bench_common.hpp so the figure-reproduction binaries
// (which do not link google benchmark) never see <benchmark/benchmark.h>.
//
// Provides:
//  * CompactJsonReporter — console reporter that also collects a compact
//    machine-readable summary:
//      {"build": {compiler, build_type, flags, git_sha, native, ipo,
//                 sanitize},
//       "profile": {...},   // optional engine self-profile, set_profile_json
//       "rows": [{"name": ..., "real_time_ms": ..., "<rate>": ...,
//                 "<per>": ...}]}
//    The build block records the provenance of the binary so the regression
//    checker (tools/check_bench_regression.py) can refuse to compare runs
//    from mismatched build configurations. The rate counter name and the
//    derived per-item field are configurable ("events_per_s"/"per_event_ns"
//    for the engine bench, "decisions_per_s"/"per_decision_ns" for the
//    policy bench); both are null for benchmarks that do not publish the
//    counter.
//  * extract_json_out — strips --json-out=PATH from argv before
//    benchmark::Initialize rejects it.
//  * run_micro_benchmarks — the shared main() body: initialize, run with
//    the reporter, write the JSON file when requested.
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

// Build provenance, injected per-target by bench/CMakeLists.txt; the
// fallbacks cover hand-compiled builds.
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

/// Compiler name + version string of the binary itself. Clang first: it
/// also defines __GNUC__ in GNU mode.
[[nodiscard]] inline std::string compiler_version() {
#if defined(__clang_version__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Console reporter that additionally collects every finished run and can
/// write the compact JSON summary. Subclassing the console reporter keeps
/// the normal terminal output while avoiding the library's file-reporter
/// path (which insists on --benchmark_out).
class CompactJsonReporter final : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_time_ms = 0.0;
    double rate = 0.0;
    double per_item_ns = 0.0;
    bool has_rate = false;
  };

  /// `rate_counter` is the per-second throughput counter benchmarks
  /// publish (e.g. "events_per_s"); `per_item_field` is the derived
  /// nanoseconds-per-item JSON field name (e.g. "per_event_ns").
  CompactJsonReporter(std::string rate_counter, std::string per_item_field)
      : rate_counter_(std::move(rate_counter)),
        per_item_field_(std::move(per_item_field)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      // Per-iteration wall time in milliseconds, independent of the
      // benchmark's display unit.
      row.real_time_ms =
          run.iterations > 0
              ? run.real_accumulated_time * 1e3 /
                    static_cast<double>(run.iterations)
              : 0.0;
      const auto it = run.counters.find(rate_counter_);
      if (it != run.counters.end() && it->second.value > 0.0) {
        row.rate = it->second.value;
        row.per_item_ns = 1e9 / it->second.value;
        row.has_rate = true;
      }
      rows_.push_back(std::move(row));
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
      const Row& r = rows_[i];
      os << "    {\"name\": \"" << r.name << "\""
         << ", \"real_time_ms\": " << r.real_time_ms;
      if (r.has_rate) {
        os << ", \"" << rate_counter_ << "\": " << r.rate << ", \""
           << per_item_field_ << "\": " << r.per_item_ns;
      } else {
        os << ", \"" << rate_counter_ << "\": null, \"" << per_item_field_
           << "\": null";
      }
      os << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
  }

  /// Every finished run, for binaries that post-process their own results
  /// (bench_batch derives the batch-vs-tasks speedup from matched rows).
  [[nodiscard]] const std::vector<Row>& rows() const noexcept {
    return rows_;
  }

  /// Attaches a pre-rendered JSON object (an engine ProfileReport) emitted
  /// as a top-level "profile" key next to "build". The regression checker
  /// ignores it; humans and trace_inspect --profile read it.
  void set_profile_json(std::string json) { profile_json_ = std::move(json); }

 private:
  std::string rate_counter_;
  std::string per_item_field_;
  std::string profile_json_;
  std::vector<Row> rows_;
};

/// Strips `prefix`VALUE from argv (before benchmark::Initialize rejects
/// the unknown flag) and returns VALUE, empty when absent.
inline std::string extract_arg(int& argc, char** argv,
                               const std::string& prefix) {
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

/// Strips --json-out=PATH from argv (before benchmark::Initialize rejects
/// it) and returns the path, empty when absent.
inline std::string extract_json_out(int& argc, char** argv) {
  return extract_arg(argc, argv, "--json-out=");
}

/// Shared main() body of the micro-benchmark binaries. `json_path` comes
/// from extract_json_out; the reporter's rows are written there after the
/// run when non-empty.
inline int run_micro_benchmarks(int argc, char** argv,
                                const std::string& json_path,
                                CompactJsonReporter& reporter) {
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
}

}  // namespace ecs::bench
