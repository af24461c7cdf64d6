// studies.cpp - The ecs_bench scenarios beyond the paper's figures: the
// questions its related work and future work leave open, and the overload
// sweep of the streaming engine.
//
// competitive_ratio: the paper builds on Bender et al.: on one processor,
// stretch-so-far EDF with alpha = 1 is Delta-competitive, where Delta is
// the ratio between the longest and the shortest job, and the offline
// optimum is computable in polynomial time by binary search + preemptive
// EDF. The paper's future work asks for competitive bounds in the
// edge-cloud setting; this scenario provides the empirical ground truth
// for the single-machine core: it sweeps Delta, solves each instance both
// online (Edge-Only on a single-edge, cloudless platform) and offline (the
// exact oracle), and reports mean and worst observed ratio against the
// Delta bound.
// Flags: --reps, --seed, --n, --delta=2,8,...
//
// energy_tradeoff: the paper's introduction names energy consumption as
// the other first-class criterion of edge-cloud platforms and defers
// multi-objective optimization to future work. For each heuristic and CCR
// this reports the achieved max-stretch next to the active energy per job
// (compute + radio, split by origin) and the energy wasted in
// re-executions. The expected picture: Edge-Only minimizes energy (cheap
// local CPUs, no radios) at a catastrophic stretch cost when CCR is low;
// the cloud-using heuristics buy their stretch with cloud wattage and
// radio time.
// Flags: --reps, --seed, --n, --ccr=0.1,1,...
//
// avg_stretch: the paper optimizes the max-stretch but reviews the
// average-stretch literature (footnote 2, related work): SRPT is
// O(1)-competitive for the *average* stretch [Muthukrishnan et al.], while
// no such guarantee exists for its max-stretch. On the mean-stretch metric
// SRPT and SSF-EDF swap closeness, and FCFS's length-blindness is far less
// visible than on the max — the worst-hit jobs vanish into the average,
// which is exactly why the paper argues max is the fairness metric.
// Flags: --reps, --seed, --n, --load=...
//
// overload: graceful degradation under sustained overload. Sweeps the
// arrival rate of a streaming workload across (and past) the platform's
// service capacity and reports, per rate point, how admission control
// trades jobs for tail latency: the refusal rate (rejections + sheds over
// all arrivals) against the p50 / p90 / p99 / p99.9 stretch of the jobs
// that WERE admitted and completed. The headline claim it pins: with
// admission on, the admitted tail stays bounded as the offered load grows
// — the refusal rate absorbs the overload — while with admission off the
// tail (and the live set) grows without bound.
// Flags:
//   --rates=R1,R2,...   arrival rates to sweep (jobs per unit time;
//                       default 1,2,4,8 around the ~2.6 capacity of the
//                       default 20-cloud/10+10-edge platform)
//   --n=N               jobs per rate point (default 20000)
//   --family=F          poisson | diurnal | bursty | pareto (default
//                       poisson)
//   --policy=NAME       scheduling policy (default srpt)
//   --max-live=K        admission cap on resident jobs (default 64;
//                       0 = admission off, the unbounded contrast row)
//   --rule=R            reject-newest | reject-hopeless | shed-infeasible
//                       (default reject-newest)
//   --stretch-limit=X   bound for shed-infeasible (default 8)
//   --seed=S            base seed (default 42)
//   --json-out=PATH     write the table as compact JSON rows
//                       (BENCH_overload.json in CI)
//   --heartbeat=SECONDS periodic progress pulse (sim time, events/sec,
//                       live set, refusals) on STDERR; stdout stays the
//                       table. 0 (default) = off.
//
// scale_probe: quick probes at paper scale, one line per run. The wall
// probe runs every registered policy once on one random instance:
//   --n=N           jobs (default 4000)
//   --ccr=X         communication-to-computation ratio (default 1)
//   --load=X        load factor (default 0.05)
//   --seed=S        instance seed (default 1)
//   --policy=NAME   probe a single policy instead of all
//   --bundle=DIR    after the probes, run the last probed policy once more
//                   and write its run bundle (bench_common.hpp) into DIR
// The streaming memory probe (--stream) measures the O(live) claim:
//   --stream-n=L          comma list of job counts (default
//                         10000,100000,1000000)
//   --rate=X              arrival rate (default 4: ~1.5x the default
//                         platform's service capacity)
//   --family=F            poisson | diurnal | bursty | pareto
//   --policy=NAME         scheduling policy (default srpt)
//   --max-live=K          admission cap (default 64; 0 = admission off)
//   --seed=S              arrival seed (default 1)
//   --heartbeat=SECONDS   progress pulse on STDERR, as for overload
// Each stage prints jobs, events, peak_live, tracked (the id-map high-water
// mark) and the process RSS high-water mark (getrusage ru_maxrss). Stages
// run in ascending n within ONE process, so a flat RSS column across a 100x
// growth in n is direct evidence that streaming memory tracks the live
// set, not the stream length.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/energy.hpp"
#include "core/metrics.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "sched/edge_only.hpp"
#include "sched/factory.hpp"
#include "sched/offline/single_machine.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/random_instances.hpp"

namespace ecs::bench {

int competitive_ratio(const Args& args) {
  const int reps = parse_reps(args, 20);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const int n = static_cast<int>(args.get_int("n", 40));
  const std::vector<double> deltas =
      args.get_double_list("delta", {2.0, 4.0, 16.0, 64.0});

  args.reject_unread();

  print_bench_header(
      std::cout, "Empirical competitive ratio: stretch-so-far EDF, 1 machine",
      "n = " + std::to_string(n) +
          " jobs, works uniform in [1, Delta], bursty releases; ratio = "
          "online / offline-optimal max-stretch (bound: Delta)",
      reps, seed);

  Table table({"Delta", "mean ratio", "worst ratio", "bound"});
  for (double delta : deltas) {
    Accumulator ratio;
    double worst = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(derive_seed(derive_seed(seed, hash_tag("delta")),
                          static_cast<std::uint64_t>(rep) * 1000 +
                              static_cast<std::uint64_t>(delta)));
      Instance instance;
      instance.platform = Platform({1.0}, 0);
      // Bursty arrivals stress the online algorithm: a fraction of the
      // jobs lands in tight clusters.
      Time t = 0.0;
      for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3)) t += rng.uniform(0.0, 4.0 * delta);
        instance.jobs.push_back(Job{i, 0, rng.uniform(1.0, delta), t,
                                    0.0, 0.0});
      }

      EdgeOnlyPolicy online;
      const SimResult sim = simulate(instance, online);
      const double online_stretch =
          metrics_from_completions(instance, sim.completions).max_stretch;

      std::vector<SmJob> jobs;
      for (const Job& job : instance.jobs) {
        jobs.push_back(SmJob{job.work, job.release, job.work});
      }
      const double offline_stretch =
          optimal_max_stretch_single_machine(jobs).max_stretch;

      const double r = online_stretch / offline_stretch;
      ratio.add(r);
      worst = std::max(worst, r);
    }
    table.add_row({format_double(delta, 2), format_double(ratio.mean(), 4),
                   format_double(worst, 4), format_double(delta, 2)});
    std::cout << "  [done] Delta = " << format_double(delta, 2) << "\n";
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nThe observed worst ratio must stay below the Delta bound "
               "(and in practice sits far below it).\n";
  return 0;
}

int energy_tradeoff(const Args& args) {
  const int reps = parse_reps(args, 5);
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

int avg_stretch(const Args& args) {
  const CommonOptions options = parse_common(args, 5);
  const int n = static_cast<int>(args.get_int("n", 1000));
  const std::vector<double> loads =
      args.get_double_list("load", {0.05, 0.25, 0.5});
  const std::vector<std::string> policies = {"greedy", "srpt", "ssf-edf",
                                             "fcfs"};

  args.reject_unread();

  print_bench_header(
      std::cout, "Average stretch across heuristics",
      "random instances, n = " + std::to_string(n) +
          ", CCR = 1; mean stretch (top) vs max stretch (bottom) on the "
          "same runs",
      options.sweep.replications, options.sweep.base_seed);

  std::vector<FigurePoint> points;
  for (double load : loads) {
    RandomInstanceConfig cfg;
    cfg.n = n;
    cfg.ccr = 1.0;
    cfg.load = load;
    points.emplace_back(format_double(load, 3), random_instances(cfg));
  }
  const std::vector<SweepPointResult> results =
      run_points(options, policies, "load = ", points);

  ReportOptions report_options;
  report_options.x_label = "load";
  report_options.show_stddev = options.show_stddev;
  report_options.metric = ReportMetric::kMeanStretch;
  const Table mean_table = make_report(results, policies, report_options);
  std::cout << "mean stretch\n";
  mean_table.print(std::cout);
  report_options.metric = ReportMetric::kMaxStretch;
  const Table max_table = make_report(results, policies, report_options);
  std::cout << "\nmax stretch (same runs)\n";
  max_table.print(std::cout);
  write_csv(options, {&mean_table, &max_table});
  return write_trace_artifacts(options, policies, points);
}

namespace {

struct OverloadRow {
  double rate = 0.0;
  SimStats stats;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0, max = 0.0;
  double wall_seconds = 0.0;
  double refusal_rate = 0.0;
};

}  // namespace

int overload(const Args& args) {
  const std::vector<double> rates =
      args.get_double_list("rates", {1.0, 2.0, 4.0, 8.0});
  const auto n = args.get_int("n", 20'000);
  const std::string family_name = args.get_or("family", "poisson");
  const std::string policy_name = args.get_or("policy", "srpt");
  const auto max_live =
      static_cast<std::uint64_t>(args.get_int("max-live", 64));
  const std::string rule_name = args.get_or("rule", "reject-newest");
  const double stretch_limit = args.get_double("stretch-limit", 8.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string json_path = output_flag(args, "json-out");
  const double heartbeat_s = args.get_double("heartbeat", 0.0);
  args.reject_unread();
  // One monitor across every rate point: stderr pulses only, so stdout
  // (the table and the [done] markers) stays clean for redirection.
  std::optional<obs::HeartbeatMonitor> heartbeat;
  if (heartbeat_s > 0.0) heartbeat.emplace(heartbeat_s);

  AdmissionConfig admission;
  admission.max_live = max_live;
  if (rule_name == "reject-newest") {
    admission.rule = AdmissionRule::kRejectNewest;
  } else if (rule_name == "reject-hopeless") {
    admission.rule = AdmissionRule::kRejectHopeless;
  } else if (rule_name == "shed-infeasible") {
    admission.rule = AdmissionRule::kShedInfeasible;
    admission.stretch_limit = stretch_limit;
  } else {
    throw std::invalid_argument("unknown --rule '" + rule_name +
                                "' (expected reject-newest, "
                                "reject-hopeless or shed-infeasible)");
  }

  RandomInstanceConfig platform_cfg;  // paper platform, jobs unused
  Instance base;
  base.platform = make_random_platform(platform_cfg);

  std::printf(
      "overload sweep: %s arrivals, policy %s, n=%lld per point, "
      "admission %s (max-live=%llu)\n\n",
      family_name.c_str(), policy_name.c_str(),
      static_cast<long long>(n), rule_name.c_str(),
      static_cast<unsigned long long>(max_live));

  std::vector<OverloadRow> rows;
  for (const double rate : rates) {
    ArrivalConfig acfg;
    acfg.family = parse_arrival_family(family_name);
    acfg.n = n;
    acfg.rate = rate;
    acfg.seed = derive_seed(seed, hash_tag("overload"));
    acfg.shape.edge_count = base.platform.edge_count();

    EngineConfig config;
    config.record_schedule = false;
    config.record_completions = false;
    config.record_admission = false;  // stats carry the counts we report
    config.admission = admission;
    if (heartbeat) config.heartbeat = &*heartbeat;
    // The engine's own job.stretch sketch: every completion's stretch, in
    // O(1) memory regardless of n.
    obs::MetricsRegistry registry;
    config.metrics = &registry;

    const auto arrivals = make_arrival_stream(acfg);
    const auto policy = make_policy(policy_name);
    const auto start = std::chrono::steady_clock::now();
    const SimResult result =
        simulate_stream(base, *arrivals, *policy, config);

    OverloadRow row;
    row.rate = rate;
    row.stats = result.stats;
    row.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const obs::QuantileSketch sketch = registry.sketch_value("job.stretch");
    row.p50 = sketch.quantile(0.50);
    row.p90 = sketch.quantile(0.90);
    row.p99 = sketch.quantile(0.99);
    row.p999 = sketch.quantile(0.999);
    row.max = sketch.quantile(1.0);
    row.refusal_rate =
        static_cast<double>(row.stats.rejections + row.stats.sheds) /
        static_cast<double>(n > 0 ? n : 1);
    rows.push_back(row);
    std::printf("  [done] rate = %g\n", rate);
  }

  std::printf(
      "\n%8s %9s %9s %8s %9s %9s %8s %8s %8s %8s %8s\n", "rate", "admitted",
      "refused", "ref.rate", "peak.live", "p50", "p90", "p99", "p99.9",
      "max", "wall[s]");
  for (const OverloadRow& r : rows) {
    std::printf(
        "%8g %9llu %9llu %8.3f %9llu %9.2f %8.2f %8.2f %8.2f %8.2f %8.3f\n",
        r.rate, static_cast<unsigned long long>(r.stats.admitted),
        static_cast<unsigned long long>(r.stats.rejections + r.stats.sheds),
        r.refusal_rate, static_cast<unsigned long long>(r.stats.peak_live),
        r.p50, r.p90, r.p99, r.p999, r.max, r.wall_seconds);
  }

  if (!json_path.empty()) {
    std::ofstream out = open_output(json_path, "--json-out");
    out << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const OverloadRow& r = rows[i];
      out << "  {\"name\": \"overload/" << family_name << "/rate="
          << r.rate << "\", \"policy\": \"" << policy_name
          << "\", \"rule\": \"" << rule_name << "\""
          << ", \"n\": " << n << ", \"admitted\": " << r.stats.admitted
          << ", \"rejections\": " << r.stats.rejections
          << ", \"sheds\": " << r.stats.sheds
          << ", \"refusal_rate\": " << r.refusal_rate
          << ", \"peak_live\": " << r.stats.peak_live
          << ", \"events\": " << r.stats.events
          << ", \"stretch_p50\": " << r.p50
          << ", \"stretch_p90\": " << r.p90
          << ", \"stretch_p99\": " << r.p99
          << ", \"stretch_p999\": " << r.p999
          << ", \"stretch_max\": " << r.max
          << ", \"real_time_ms\": " << r.wall_seconds * 1e3 << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "]\n";
    std::printf("\nJSON -> %s\n", json_path.c_str());
  }
  return 0;
}

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

int stream_probe(const Args& args) {
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

int wall_probe(const Args& args) {
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
  const std::string bundle_dir = bundle_flag(args);
  args.reject_unread();

  Rng rng(seed);
  const Instance instance = make_random_instance(cfg, rng);
  RunOptions options;
  options.validate = false;
  for (const std::string& name : names) {
    const RunOutcome o = run_policy(instance, name, options);
    std::printf(
        "%-10s max=%8.3f mean=%6.3f wall=%7.3fs events=%llu reexec=%llu\n",
        name.c_str(), o.metrics.max_stretch, o.metrics.mean_stretch,
        o.wall_seconds, static_cast<unsigned long long>(o.stats.events),
        static_cast<unsigned long long>(o.stats.reassignments));
  }
  if (bundle_dir.empty()) return 0;
  return write_bundle(bundle_dir, instance, names.back(), options,
                      "n = " + std::to_string(cfg.n));
}

}  // namespace

int scale_probe(const Args& args) {
  return args.get_bool("stream", false) ? stream_probe(args)
                                        : wall_probe(args);
}

}  // namespace ecs::bench
