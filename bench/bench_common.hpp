// bench_common.hpp - Shared plumbing for the ecs_bench scenarios and the
// ecs_microbench main.
//
// The figure and ablation scenarios share one sweep loop: each parses the
// common flags, builds one FigurePoint per x value, runs them through
// run_points and prints a paper-style table (optionally also CSV). Flags
// understood by all of them:
//
//   --reps=N        replications per point (paper: 1000; defaults are
//                   smaller so the whole suite finishes on small hosts)
//   --seed=S        base seed (default 42)
//   --threads=T     worker threads (default: hardware concurrency)
//   --csv=PATH      also write the table as CSV
//   --stddev        show the standard deviation next to each mean
//   --no-validate   skip the first-replication schedule validation
//
// Each scenario reads its own flags too, then calls Args::reject_unread
// before any work: a flag that nothing read fails the run.
//
// Run bundle (see docs/OBSERVABILITY.md): after the sweep, the first
// replication of the first sweep point is re-run once with every observer
// attached, and its artifacts are written into one directory.
//
//   --bundle=DIR         write trace.json (Perfetto), trace.jsonl (lossless,
//                        read by tools/trace_inspect), metrics.json,
//                        metrics.prom and profile.json into DIR, created
//                        while the flags are parsed; print the invariant
//                        watchdog's report and exit 3 on a violation
//   --trace-policy=NAME  policy of the bundle run (default: last policy of
//                        the run); needs --bundle
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_sink.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sched/factory.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs::bench {

struct CommonOptions {
  SweepOptions sweep;
  std::string csv_path;
  bool show_stddev = false;
  std::string bundle_dir;    ///< --bundle= run bundle directory
  std::string trace_policy;  ///< --trace-policy= (default: last policy)
};

/// Runs a bench program's body under the repo's error-path convention:
/// exceptions (e.g. a malformed numeric flag rejected by Args, or an
/// invalid schedule) become a one-line `error: ...` on stderr and exit
/// status 1 instead of std::terminate.
template <typename Fn>
int guarded_main(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

/// Strips `prefix`VALUE from argv (before benchmark::Initialize rejects
/// the unknown flag) and returns VALUE, nullopt when absent.
inline std::optional<std::string> extract_arg(int& argc, char** argv,
                                              const std::string& prefix) {
  std::optional<std::string> value;
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

/// The --reps flag. Throws std::invalid_argument naming the flag when it is
/// below 1 (a sweep of zero replications prints a table of zeros) or does
/// not fit an int.
inline int parse_reps(const Args& args, int default_reps) {
  const std::int64_t reps = args.get_int("reps", default_reps);
  if (reps < 1) {
    throw std::invalid_argument("--reps must be >= 1, got " +
                                std::to_string(reps));
  }
  constexpr int kMaxReps = std::numeric_limits<int>::max();
  if (reps > kMaxReps) {
    throw std::invalid_argument("--reps must be <= " +
                                std::to_string(kMaxReps) + ", got " +
                                std::to_string(reps));
  }
  return static_cast<int>(reps);
}

/// Opens `path` for writing. Throws std::invalid_argument naming `flag`
/// when it cannot, which at parse time fails the run before any work. The
/// parse-time checks open with std::ios::app, so a run that fails later
/// leaves what an earlier run wrote there intact.
inline std::ofstream open_output(const std::filesystem::path& path,
                                 const std::string& flag,
                                 std::ios::openmode mode = std::ios::out) {
  std::ofstream file(path, mode);
  if (!file) {
    throw std::invalid_argument(flag + ": cannot write " + path.string());
  }
  return file;
}

/// The path of the output flag --key=PATH, "" when the flag is absent. The
/// file is opened here, so a bare flag or an unwritable path fails while
/// the flags are parsed instead of leaving the artifact silently missing.
inline std::string output_flag(const Args& args, const std::string& key) {
  const std::optional<std::string> path = args.get(key);
  if (!path) return "";
  if (path->empty()) throw std::invalid_argument("--" + key + " needs a path");
  (void)open_output(*path, "--" + key, std::ios::app);
  return *path;
}

/// The file names of a run bundle (write_bundle).
inline constexpr const char* kBundleFiles[] = {
    "trace.json", "trace.jsonl", "metrics.json", "metrics.prom",
    "profile.json"};

/// The --bundle flag: creates the directory and checks that every bundle
/// file can be written, so an unusable directory fails before any point
/// runs. Empty when the flag is absent.
inline std::string bundle_flag(const Args& args) {
  const std::optional<std::string> flag = args.get("bundle");
  if (!flag) return "";
  const std::string& dir = *flag;
  if (dir.empty()) throw std::invalid_argument("--bundle needs a directory");
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error || !std::filesystem::is_directory(dir)) {
    throw std::invalid_argument("--bundle: cannot create directory " + dir +
                                (error ? ": " + error.message() : ""));
  }
  for (const char* name : kBundleFiles) {
    (void)open_output(std::filesystem::path(dir) / name, "--bundle",
                      std::ios::app);
  }
  return dir;
}

/// Parses the common flags. Throws std::invalid_argument naming the flag
/// for a bad --reps (parse_reps), --threads < 0 (a negative count would
/// wrap to a huge unsigned thread request), a bare or unwritable --csv or
/// --bundle, or an unknown --trace-policy or one without --bundle (either
/// would otherwise fail or do nothing only after the whole sweep).
inline CommonOptions parse_common(const Args& args, int default_reps) {
  CommonOptions options;
  const int reps = parse_reps(args, default_reps);
  const std::int64_t threads = args.get_int("threads", 0);
  if (threads < 0) {
    throw std::invalid_argument("--threads must be >= 0 (0 = hardware "
                                "concurrency), got " +
                                std::to_string(threads));
  }
  options.sweep.replications = reps;
  options.sweep.base_seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  options.sweep.threads = static_cast<unsigned>(threads);
  options.sweep.validate_first = !args.get_bool("no-validate", false);
  options.csv_path = output_flag(args, "csv");
  options.show_stddev = args.get_bool("stddev", false);
  options.bundle_dir = bundle_flag(args);
  options.trace_policy = args.get_or("trace-policy", "");
  if (!options.trace_policy.empty()) {
    try {
      (void)make_policy(options.trace_policy);
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("--trace-policy: unknown policy '" +
                                  options.trace_policy + "'");
    }
    if (options.bundle_dir.empty()) {
      throw std::invalid_argument("--trace-policy needs --bundle");
    }
  }
  return options;
}

/// One x value of a figure or ablation sweep.
struct FigurePoint {
  FigurePoint(std::string point_label, InstanceFactory point_factory,
              FaultPlanFactory point_faults = {})
      : label(std::move(point_label)),
        factory(std::move(point_factory)),
        faults(std::move(point_faults)) {}

  std::string label;        ///< table row label and seed-derivation label
  InstanceFactory factory;  ///< draws the instance of one replication
  /// This point's unannounced fault plan; empty = the sweep options' own.
  FaultPlanFactory faults;
};

/// Factory for make_random_instance(cfg, Rng(seed)).
inline InstanceFactory random_instances(const RandomInstanceConfig& cfg) {
  return [cfg](std::uint64_t seed) {
    Rng rng(seed);
    return make_random_instance(cfg, rng);
  };
}

/// The sweep loop of every figure and ablation scenario: runs point i under
/// point_index = i (so equal labels still draw distinct instances) with
/// the point's own fault plan when it has one, prints
/// `  [done] <done_prefix><label>` after each point and a blank line after
/// the last, and returns the results in point order.
[[nodiscard]] inline std::vector<SweepPointResult> run_points(
    const CommonOptions& options, const std::vector<std::string>& policies,
    const std::string& done_prefix, const std::vector<FigurePoint>& points) {
  std::vector<SweepPointResult> results;
  for (const FigurePoint& point : points) {
    SweepOptions sweep = options.sweep;
    sweep.point_index = static_cast<int>(results.size());
    if (point.faults) sweep.fault_factory = point.faults;
    results.push_back(
        run_sweep_point(point.label, point.factory, policies, sweep));
    std::cout << "  [done] " << done_prefix << point.label << "\n";
  }
  std::cout << "\n";
  return results;
}

/// Runs `policy` on `instance` once with every observer attached — a
/// Perfetto and a JSONL trace sink (tee'd), the metrics registry, the
/// engine profiler, the invariant watchdog and decision provenance, so
/// trace_inspect --explain can tell every job's causal story — and writes
/// kBundleFiles into `dir`. Prints `traced run: policy P, <what>, ...`, the
/// bundle line and the watchdog report. Returns the process exit status: 0,
/// or 3 when the watchdog detected an invariant violation.
[[nodiscard]] inline int write_bundle(const std::string& dir,
                                      const Instance& instance,
                                      const std::string& policy,
                                      RunOptions run_options,
                                      const std::string& what) {
  const std::filesystem::path root(dir);
  std::ofstream perfetto_file = open_output(root / "trace.json", "--bundle");
  std::ofstream jsonl_file = open_output(root / "trace.jsonl", "--bundle");
  obs::PerfettoTraceSink perfetto(perfetto_file);
  obs::JsonlTraceSink jsonl(jsonl_file);
  obs::TeeTraceSink tee;
  tee.add(&perfetto);
  tee.add(&jsonl);
  obs::MetricsRegistry registry;
  obs::InvariantWatchdog watchdog;
  obs::EngineProfiler profiler;
  run_options.engine.trace = &tee;
  run_options.engine.metrics = &registry;
  run_options.engine.watchdog = &watchdog;
  run_options.engine.profiler = &profiler;
  run_options.engine.provenance = true;
  const RunOutcome outcome = run_policy(instance, policy, run_options);

  std::cout << "traced run: policy " << policy << ", " << what
            << ", max-stretch "
            << format_double(outcome.metrics.max_stretch, 3) << ", "
            << outcome.stats.events << " events\n";
  std::cout << "  bundle -> " << dir
            << "  (trace.json opens in ui.perfetto.dev; tools/trace_inspect "
               "reads the rest)\n";
  // The metrics files carry the profile too (engine.profile.* series), so
  // one run yields one coherent snapshot.
  const obs::ProfileReport report = profiler.report();
  report.to_metrics(registry);
  std::ofstream profile_file = open_output(root / "profile.json", "--bundle");
  report.write_json(profile_file);
  std::ofstream metrics_file = open_output(root / "metrics.json", "--bundle");
  registry.write_json(metrics_file);
  std::ofstream prom_file = open_output(root / "metrics.prom", "--bundle");
  registry.write_prometheus(prom_file);
  watchdog.report(std::cout);
  return watchdog.ok() ? 0 : 3;
}

/// With --bundle, re-runs replication 0 of `points.front()` — the exact
/// instance and fault plan run_points swept under point_index 0 — through
/// write_bundle, so the bundle shows one of the runs the sweep aggregated.
/// Returns the process exit status (scenarios return it): 0 without
/// --bundle.
[[nodiscard]] inline int write_trace_artifacts(
    const CommonOptions& options, const std::vector<std::string>& policies,
    const std::vector<FigurePoint>& points) {
  if (options.bundle_dir.empty() || policies.empty() || points.empty()) {
    return 0;
  }
  const FigurePoint& point = points.front();
  // Default to the last policy: the scenarios list edge-only first, so the
  // last one is a cloud-using heuristic whose trace shows communication
  // spans and flow arrows (override with --trace-policy).
  const std::string policy =
      options.trace_policy.empty() ? policies.back() : options.trace_policy;
  const std::uint64_t seed =
      sweep_seed(options.sweep.base_seed, 0, point.label, 0);
  const Instance instance = point.factory(seed);
  RunOptions run_options;
  const FaultPlanFactory& faults =
      point.faults ? point.faults : options.sweep.fault_factory;
  if (faults) run_options.engine.faults = faults(instance, seed);
  return write_bundle(options.bundle_dir, instance, policy, run_options,
                      "point " + point.label);
}

/// Writes `tables` to the --csv file, separated by blank lines; a no-op
/// without the flag.
inline void write_csv(const CommonOptions& options,
                      std::initializer_list<const Table*> tables) {
  if (options.csv_path.empty()) return;
  std::ofstream csv = open_output(options.csv_path, "--csv");
  const char* separator = "";
  for (const Table* table : tables) {
    csv << separator;
    table->write_csv(csv);
    separator = "\n";
  }
  std::cout << "CSV written to " << options.csv_path << "\n";
}

/// Prints the stretch table and the scheduling-time table for a finished
/// sweep, and writes the CSV when requested.
inline void report_sweep(const std::vector<SweepPointResult>& points,
                         const std::vector<std::string>& policies,
                         const CommonOptions& options,
                         const std::string& x_label) {
  ReportOptions stretch_options;
  stretch_options.metric = ReportMetric::kMaxStretch;
  stretch_options.x_label = x_label;
  stretch_options.show_stddev = options.show_stddev;
  const Table stretch_table = make_report(points, policies, stretch_options);
  std::cout << "max-stretch (mean over replications)\n";
  stretch_table.print(std::cout);

  ReportOptions time_options;
  time_options.metric = ReportMetric::kWallSeconds;
  time_options.x_label = x_label;
  time_options.precision = 4;
  const Table time_table = make_report(points, policies, time_options);
  std::cout << "\nscheduling time per instance [s]\n";
  time_table.print(std::cout);

  const Table quantile_table =
      make_stretch_quantile_report(points, policies, x_label);
  std::cout << "\nper-job stretch tail (quantile sketch, "
            << format_double(obs::QuantileSketch::kAlpha * 100.0, 0)
            << "% relative error)\n";
  quantile_table.print(std::cout);
  std::cout << "\n";

  write_csv(options, {&stretch_table, &time_table, &quantile_table});
}

// The ecs_bench scenarios (the table in ecs_bench.cpp names them). Each
// reads its flags from `args`, rejects the unread ones before any work and
// returns the process exit status.

// figures.cpp: the paper's Fig. 2.
int fig2a_random_ccr(const Args& args);
int fig2b_random_load(const Args& args);
/// Fig. 2(c) and 2(d): the same Kang sweep; they differ in the default
/// --edges and the title.
int fig2_kang(const Args& args, int default_edges, const std::string& title);

// ablations.cpp: A1-A6.
int ablation_epsilon(const Args& args);
int ablation_reexec(const Args& args);
int ablation_cloudsize(const Args& args);
int ablation_outages(const Args& args);
int ablation_arrivals(const Args& args);
int ablation_faults(const Args& args);

// studies.cpp: the paper's open questions, the overload sweep and the
// paper-scale probes.
int competitive_ratio(const Args& args);
int energy_tradeoff(const Args& args);
int avg_stretch(const Args& args);
int overload(const Args& args);
int scale_probe(const Args& args);

// micro_engine.cpp: shared by the ecs_microbench series and its main.

/// Deterministic sparse-activity instance: arrivals are spaced so that both
/// the edges and the clouds run well below saturation and the live set
/// stays bounded (a few jobs) regardless of n.
Instance sparse_instance(int n);

/// Runs sparse_instance(10000) once with a profiler attached, writes the
/// profile to the given paths (each optional) and returns it as a JSON
/// object for the --json-out summary.
std::string run_engine_profile(const std::string& json_path,
                               const std::string& perfetto_path);

}  // namespace ecs::bench
