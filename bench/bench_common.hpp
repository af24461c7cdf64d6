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
//   --log-level=L   stderr log threshold: debug, info, warn or error
//
// Each scenario reads its own flags too, then calls Args::reject_unread
// before any work: a flag that nothing read fails the run.
//
// Observability flags (see docs/OBSERVABILITY.md): after the sweep, the
// first replication of the first sweep point is re-run with sinks attached
// and the artifacts are written out.
//
//   --trace-out=PATH     Chrome/Perfetto trace_event JSON (ui.perfetto.dev)
//   --trace-jsonl=PATH   lossless JSONL trace (tools/trace_inspect reads it)
//   --metrics-out=PATH   MetricsRegistry JSON snapshot of that run
//   --metrics-prom=PATH  MetricsRegistry Prometheus text exposition
//   --trace-policy=NAME  policy to trace (default: last policy of the run)
//   --profile-out=PATH   engine self-profile (obs/profiler.hpp) of the
//                        traced run as JSON: per-phase cost breakdown plus
//                        the decision-latency sketch (DESIGN.md §8 is
//                        reproduced from this artifact)
//   --watchdog           run the traced replication under the online
//                        invariant watchdog (obs/watchdog.hpp) and print
//                        its report; exits 3 on a violation
#pragma once

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
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
#include "util/log.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs::bench {

struct CommonOptions {
  SweepOptions sweep;
  std::string csv_path;
  bool show_stddev = false;
  std::string trace_path;    ///< --trace-out=   Perfetto trace_event JSON
  std::string trace_jsonl;   ///< --trace-jsonl= lossless JSONL trace
  std::string metrics_path;  ///< --metrics-out= metrics registry JSON
  std::string metrics_prom;  ///< --metrics-prom= Prometheus exposition
  std::string trace_policy;  ///< --trace-policy= (default: last policy)
  std::string profile_path;  ///< --profile-out= engine self-profile JSON
  bool watchdog = false;     ///< --watchdog: invariant-check the traced run
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

/// The level named by --log-level. Throws std::invalid_argument on an
/// unknown name, so a typo fails like every other bad flag.
inline LogLevel log_level_flag(const std::string& name) {
  const std::optional<LogLevel> level = parse_log_level(name);
  if (!level) {
    throw std::invalid_argument("unknown --log-level '" + name +
                                "' (expected debug, info, warn or error)");
  }
  return *level;
}

/// Applies --log-level=debug|info|warn|error (see log_level_flag).
inline void apply_log_level(const Args& args) {
  const std::string name = args.get_or("log-level", "");
  if (!name.empty()) set_log_level(log_level_flag(name));
}

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

/// argv-level apply_log_level for the google-benchmark main: strips
/// --log-level=... before benchmark::Initialize sees (and rejects) it.
inline void apply_log_level_argv(int& argc, char** argv) {
  const std::string name = extract_arg(argc, argv, "--log-level=");
  if (!name.empty()) set_log_level(log_level_flag(name));
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

/// Parses the common flags. Throws std::invalid_argument naming the flag
/// for a bad --reps (parse_reps), --threads < 0 (a negative count would
/// wrap to a huge unsigned thread request) or an unknown --trace-policy
/// (which would otherwise fail only after the whole sweep).
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
  options.csv_path = args.get_or("csv", "");
  options.show_stddev = args.get_bool("stddev", false);
  options.trace_path = args.get_or("trace-out", "");
  options.trace_jsonl = args.get_or("trace-jsonl", "");
  options.metrics_path = args.get_or("metrics-out", "");
  options.metrics_prom = args.get_or("metrics-prom", "");
  options.trace_policy = args.get_or("trace-policy", "");
  if (!options.trace_policy.empty()) {
    try {
      (void)make_policy(options.trace_policy);
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("--trace-policy: unknown policy '" +
                                  options.trace_policy + "'");
    }
  }
  options.profile_path = args.get_or("profile-out", "");
  options.watchdog = args.get_bool("watchdog", false);
  apply_log_level(args);
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

/// True when any observability artifact was requested.
inline bool wants_trace_artifacts(const CommonOptions& options) {
  return !options.trace_path.empty() || !options.trace_jsonl.empty() ||
         !options.metrics_path.empty() || !options.metrics_prom.empty() ||
         !options.profile_path.empty() || options.watchdog;
}

/// Opens the artifact file `path` for writing: false when no path was given,
/// and false with a warning on stderr when the file cannot be opened.
inline bool open_artifact(std::ofstream& file, const std::string& path,
                          const char* what) {
  if (path.empty()) return false;
  file.open(path);
  if (!file) std::cerr << "cannot write " << what << " to " << path << "\n";
  return static_cast<bool>(file);
}

/// Re-runs replication 0 of `points.front()` — the exact instance and
/// fault plan run_points swept under point_index 0 — with the requested
/// sinks attached and writes the artifact files, so the trace shows one of
/// the runs the sweep aggregated. A no-op unless one of --trace-out /
/// --trace-jsonl / --metrics-out / --metrics-prom / --profile-out /
/// --watchdog was given. Returns the process exit status: 0, or 3 when
/// --watchdog detected an invariant violation (scenarios return it).
[[nodiscard]] inline int write_trace_artifacts(
    const CommonOptions& options, const std::vector<std::string>& policies,
    const std::vector<FigurePoint>& points) {
  if (!wants_trace_artifacts(options) || policies.empty() || points.empty()) {
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

  std::ofstream perfetto_file;
  std::ofstream jsonl_file;
  std::optional<obs::PerfettoTraceSink> perfetto;
  std::optional<obs::JsonlTraceSink> jsonl;
  obs::TeeTraceSink tee;
  if (open_artifact(perfetto_file, options.trace_path, "trace")) {
    perfetto.emplace(perfetto_file);
    tee.add(&*perfetto);
  }
  if (open_artifact(jsonl_file, options.trace_jsonl, "trace")) {
    jsonl.emplace(jsonl_file);
    tee.add(&*jsonl);
  }
  obs::MetricsRegistry registry;
  std::optional<obs::InvariantWatchdog> watchdog;
  if (options.watchdog) watchdog.emplace();
  // The profiler is the metrics artifacts' only source of phase timers
  // (engine.profile.phase.*), so any of them attaches one.
  std::optional<obs::EngineProfiler> profiler;
  if (!options.profile_path.empty() || !options.metrics_path.empty() ||
      !options.metrics_prom.empty()) {
    profiler.emplace();
  }

  RunOptions run_options;
  run_options.engine = options.sweep.engine;
  const FaultPlanFactory& faults =
      point.faults ? point.faults : options.sweep.fault_factory;
  if (faults) run_options.engine.faults = faults(instance, seed);
  if (!tee.empty()) run_options.engine.trace = &tee;
  run_options.engine.metrics = &registry;
  if (watchdog) run_options.engine.watchdog = &*watchdog;
  if (profiler) run_options.engine.profiler = &*profiler;
  // Traced artifacts carry decision provenance so trace_inspect --explain
  // can reconstruct every job's causal story from the JSONL file.
  run_options.engine.provenance = true;
  const RunOutcome outcome = run_policy(instance, policy, run_options);

  std::cout << "traced run: policy " << policy << ", point " << point.label
            << ", max-stretch "
            << format_double(outcome.metrics.max_stretch, 3) << ", "
            << outcome.stats.events << " events\n";
  if (perfetto) {
    std::cout << "  Perfetto trace -> " << options.trace_path
              << "  (open in ui.perfetto.dev)\n";
  }
  if (jsonl) {
    std::cout << "  JSONL trace    -> " << options.trace_jsonl
              << "  (summarize with tools/trace_inspect)\n";
  }
  if (profiler) {
    const obs::ProfileReport report = profiler->report();
    // The metrics artifacts below carry the profile too (engine.profile.*
    // series), so one traced run yields one coherent snapshot.
    report.to_metrics(registry);
    std::ofstream profile_file;
    if (open_artifact(profile_file, options.profile_path, "profile")) {
      report.write_json(profile_file);
      std::cout << "  profile JSON   -> " << options.profile_path
                << "  (render with tools/trace_inspect --profile)\n";
    }
  }
  std::ofstream metrics_file;
  if (open_artifact(metrics_file, options.metrics_path, "metrics")) {
    registry.write_json(metrics_file);
    std::cout << "  metrics JSON   -> " << options.metrics_path << "\n";
  }
  std::ofstream prom_file;
  if (open_artifact(prom_file, options.metrics_prom, "metrics")) {
    registry.write_prometheus(prom_file);
    std::cout << "  Prometheus     -> " << options.metrics_prom << "\n";
  }
  if (watchdog) {
    watchdog->report(std::cout);
    if (!watchdog->ok()) return 3;
  }
  return 0;
}

/// Writes `tables` to the --csv file, separated by blank lines; a no-op
/// without the flag.
inline void write_csv(const CommonOptions& options,
                      std::initializer_list<const Table*> tables) {
  std::ofstream csv;
  if (!open_artifact(csv, options.csv_path, "CSV")) return;
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
            << format_double(obs::QuantileSketch::kDefaultAlpha * 100.0, 0)
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

// studies.cpp: the paper's open questions and the overload sweep.
int competitive_ratio(const Args& args);
int energy_tradeoff(const Args& args);
int avg_stretch(const Args& args);
int overload(const Args& args);

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
