// scale_probe.cpp - Quick wall-time probe at paper scale (not installed).
//
// Runs every registered policy once on one random instance and prints a
// line per policy. Flags:
//
//   --n=N           jobs (default 4000)
//   --ccr=X         communication-to-computation ratio (default 1)
//   --load=X        load factor (default 0.05)
//   --seed=S        instance seed (default 1)
//   --policy=NAME   probe a single policy instead of all
//   --log-level=L   stderr log threshold: debug, info, warn or error
//   --trace-out=P   write a Perfetto trace of the LAST probed policy's run
//   --metrics-out=P write the metrics-registry JSON (all probed runs)
//
// Streaming memory probe (the O(live) claim, measured):
//
//   --stream              run ascending streaming stages instead
//   --stream-n=L          comma list of job counts (default
//                         10000,100000,1000000)
//   --rate=X              arrival rate (default 4: ~1.5x the default
//                         platform's service capacity)
//   --family=F            poisson | diurnal | bursty | pareto
//   --max-live=K          admission cap (default 64; 0 = admission off)
//   --heartbeat=SECONDS   periodic progress pulse (sim time, events/sec,
//                         live set, refusals) on STDERR — stdout stays the
//                         machine-readable table. 0 (default) = off.
//
// Each stage prints jobs, events, peak_live and the process RSS high-water
// mark (getrusage ru_maxrss). Stages run in ascending n within ONE
// process, so a flat RSS column across a 100x growth in n is direct
// evidence that streaming memory tracks the live set, not the stream
// length.
//
// The probe takes flags only: a positional argument, a malformed value or
// an unknown policy prints one `error: ...` line and exits 1.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_sink.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/args.hpp"
#include "util/log.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/random_instances.hpp"

namespace {

/// Process peak RSS in MiB. ru_maxrss units are platform-specific — KiB on
/// Linux, BYTES on macOS (see getrusage(2) on each) — so normalize per
/// platform instead of assuming KiB everywhere; the printed unit is MiB on
/// both. A high-water mark: it never decreases, which is exactly what the
/// ascending-n probe needs.
double peak_rss_mib() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

int run_stream_probe(const ecs::Args& args) {
  using namespace ecs;
  const std::vector<std::int64_t> stages =
      args.get_int_list("stream-n", {10'000, 100'000, 1'000'000});
  const double rate = args.get_double("rate", 4.0);
  const std::string family = args.get_or("family", "poisson");
  const auto max_live =
      static_cast<std::uint64_t>(args.get_int("max-live", 64));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string policy_name = args.get_or("policy", "srpt");
  const double heartbeat_s = args.get_double("heartbeat", 0.0);
  args.reject_unread();
  // An unknown family or policy fails before the table header.
  const ArrivalFamily arrival_family = parse_arrival_family(family);
  (void)make_policy(policy_name);
  // Heartbeats go to stderr (the monitor's default); stdout carries only
  // the table, so `scale_probe --stream > table.txt` stays parseable.
  std::optional<obs::HeartbeatMonitor> heartbeat;
  if (heartbeat_s > 0.0) heartbeat.emplace(heartbeat_s);

  RandomInstanceConfig pcfg;  // default paper platform; jobs unused
  Instance base;
  base.platform = make_random_platform(pcfg);

  std::printf("streaming probe: %s arrivals at rate %g, policy %s, "
              "max-live %llu (0 = admission off)\n",
              family.c_str(), rate, policy_name.c_str(),
              static_cast<unsigned long long>(max_live));
  std::printf("%10s %12s %10s %10s %10s %10s %10s\n", "jobs", "events",
              "peak_live", "tracked", "refused", "wall[s]", "rss[MiB]");
  for (const std::int64_t n : stages) {
    ArrivalConfig acfg;
    acfg.family = arrival_family;
    acfg.n = n;
    acfg.rate = rate;
    acfg.seed = seed;
    acfg.shape.edge_count = base.platform.edge_count();

    EngineConfig config;
    config.record_schedule = false;
    config.record_completions = false;
    config.record_admission = false;  // grows with refusals, not live
    config.admission.max_live = max_live;
    if (heartbeat) config.heartbeat = &*heartbeat;

    const auto arrivals = make_arrival_stream(acfg);
    const auto policy = make_policy(policy_name);
    const auto start = std::chrono::steady_clock::now();
    const SimResult result =
        simulate_stream(base, *arrivals, *policy, config);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf("%10lld %12llu %10llu %10llu %10llu %10.3f %10.1f\n",
                static_cast<long long>(n),
                static_cast<unsigned long long>(result.stats.events),
                static_cast<unsigned long long>(result.stats.peak_live),
                static_cast<unsigned long long>(result.stats.peak_tracked),
                static_cast<unsigned long long>(result.stats.rejections +
                                                result.stats.sheds),
                wall, peak_rss_mib());
  }
  return 0;
}

int run_wall_probe(const ecs::Args& args) {
  using namespace ecs;
  RandomInstanceConfig cfg;
  cfg.n = static_cast<int>(args.get_int("n", 4000));
  cfg.ccr = args.get_double("ccr", 1.0);
  cfg.load = args.get_double("load", 0.05);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::vector<std::string> names = policy_names();
  const std::string only = args.get_or("policy", "");
  if (!only.empty()) {
    (void)make_policy(only);  // an unknown name fails before any work
    names = {only};
  }
  const std::string trace_path = args.get_or("trace-out", "");
  const std::string metrics_path = args.get_or("metrics-out", "");
  args.reject_unread();

  Rng rng(seed);
  const Instance instance = make_random_instance(cfg, rng);
  obs::MetricsRegistry registry;

  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    RunOptions options;
    options.validate = false;
    options.engine.metrics = metrics_path.empty() ? nullptr : &registry;
    // One trace file, so only the last policy (the only sensible default
    // when probing a single --policy) gets the sink.
    std::ofstream trace_file;
    std::optional<obs::PerfettoTraceSink> sink;
    if (!trace_path.empty() && i + 1 == names.size()) {
      trace_file.open(trace_path);
      if (!trace_file) {
        throw std::runtime_error("cannot write trace to " + trace_path);
      }
      sink.emplace(trace_file);
      options.engine.trace = &*sink;
    }
    const RunOutcome o = run_policy(instance, name, options);
    std::printf(
        "%-10s max=%8.3f mean=%6.3f wall=%7.3fs events=%llu reexec=%llu\n",
        name.c_str(), o.metrics.max_stretch, o.metrics.mean_stretch,
        o.wall_seconds, static_cast<unsigned long long>(o.stats.events),
        static_cast<unsigned long long>(o.stats.reassignments));
    if (sink) {
      std::printf("  Perfetto trace -> %s (open in ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  }

  if (!metrics_path.empty()) {
    std::ofstream metrics_file(metrics_path);
    if (!metrics_file) {
      throw std::runtime_error("cannot write metrics to " + metrics_path);
    }
    registry.write_json(metrics_file);
    std::printf("metrics JSON -> %s\n", metrics_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecs;
  try {
    const Args args = Args::parse(argc, argv);
    if (!args.positional().empty()) {
      throw std::invalid_argument("unexpected argument '" +
                                  args.positional().front() +
                                  "': scale_probe takes flags only (--n=N "
                                  "--ccr=X --load=X)");
    }
    const std::string level_name = args.get_or("log-level", "");
    if (!level_name.empty()) {
      const std::optional<LogLevel> level = parse_log_level(level_name);
      if (!level) {
        throw std::invalid_argument("unknown --log-level '" + level_name +
                                    "' (expected debug, info, warn or error)");
      }
      set_log_level(*level);
    }
    return args.get_bool("stream", false) ? run_stream_probe(args)
                                          : run_wall_probe(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

