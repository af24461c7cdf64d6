// main.cpp - ecs_perfbench, the engine half of the repository benchmark
// (perfbench/run.py builds it, measures set-up time and validates the
// output).
//
//   ecs_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--spans-out=PATH] [--expect-digest=HEX]
//                 [--expect-world-digest=HEX] [--setup-only]
//
// --trace=0 repeats the workload's timed (serial) round for S seconds and
// reports the end-to-end metrics. --trace=1 runs parallel rounds for a third
// of S, then replays the same worlds serially twice, bare and through the
// benchmark's wrappers, and reports the per-layer metrics. --setup-only
// stops at the first timed world. The last stdout line is one JSON object.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gauge.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string digest;
  std::string world_digest;
};

void fail(Outcome& out, std::uint64_t worlds, const std::string& why) {
  out.failed += worlds;
  std::fprintf(stderr, "perfbench: FAILED (%llu worlds): %s\n",
               static_cast<unsigned long long>(worlds), why.c_str());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(const std::vector<double>& xs) {
  return ecs::percentile(xs, 0.5);
}

/// Round time at the reference host speed. Each world's time is taken in
/// units of the gauge kernel (the mean of its runs just before and just
/// after the world), the median of that over the rounds kept per world, and
/// the sum turned back into seconds at the kernel's reference time. A host
/// that runs everything slower for a whole run then moves the figure far
/// less than it moves the raw times.
double normalized_round_s(const std::vector<Pass>& rounds) {
  const std::size_t worlds = rounds.front().world_s.size();
  std::vector<double> units;
  double sum = 0.0;
  for (std::size_t w = 0; w < worlds; ++w) {
    units.clear();
    for (const Pass& r : rounds) {
      if (r.world_s.size() != worlds || r.gauge_s.size() != worlds + 1) {
        throw std::runtime_error("rounds timed different numbers of worlds");
      }
      units.push_back(2.0 * r.world_s[w] / (r.gauge_s[w] + r.gauge_s[w + 1]));
    }
    sum += median(units);
  }
  return sum * kReferenceGaugeS;
}

/// High-water RSS of this process image. VmHWM, not getrusage: Linux folds
/// the pre-exec image of the spawning process into ru_maxrss.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double phase_ms(const ecs::obs::ProfileReport& profile,
                ecs::obs::EnginePhase phase) {
  return profile.phases[static_cast<std::size_t>(phase)].ns * 1e-6;
}

/// The per-layer metrics of one traced run: `rounds` are the parallel
/// rounds, `bare` and `traced` the serial replays of the same worlds.
void layer_metrics(const Workload& workload, const std::vector<Pass>& rounds,
                   const Pass& bare, const Pass& traced, const SpanLog& log,
                   std::vector<Metric>& m) {
  using ecs::obs::EnginePhase;
  double decide_ns = 0.0, arrival_ns = 0.0, instance_gen_ns = 0.0;
  double validate_ns = 0.0, metrics_ns = 0.0;
  std::uint64_t calls = 0, live = 0, arrival_calls = 0;
  for (const WorldSpan& w : log.worlds()) {
    decide_ns += w.decide_ns;
    calls += w.decide_calls;
    live += w.live_sum;
    arrival_ns += w.arrival_ns;
    arrival_calls += w.arrival_calls;
    instance_gen_ns += w.instance_gen_ns;
    validate_ns += w.validate_ns;
    metrics_ns += w.metrics_ns;
  }
  const double service_ns = traced.service_s * 1e9;
  const double self_ns = service_ns - decide_ns - arrival_ns;
  const ecs::obs::ProfileReport& profile = traced.profile;

  // sched: Policy::decide, timed by the TimedPolicy wrapper.
  m.push_back({"sched.decide_ms", decide_ns * 1e-6, "ms"});
  m.push_back({"sched.decide_share", ratio(decide_ns, service_ns), "ratio"});
  m.push_back({"sched.decide_ns_p50", log.decide_sketch().quantile(0.5), "ns"});
  m.push_back({"sched.decide_ns_p99", log.decide_sketch().quantile(0.99), "ns"});
  m.push_back({"sched.live_per_call",
               ratio(static_cast<double>(live), static_cast<double>(calls)),
               "jobs"});
  for (const char* policy : {"greedy", "srpt", "ssf-edf", "edge-only"}) {
    double ns = 0.0;
    for (const WorldSpan& w : log.worlds()) {
      if (w.policy == policy) ns += w.decide_ns;
    }
    m.push_back({std::string("sched.decide_ms.") + policy, ns * 1e-6, "ms"});
  }

  // sim: the engine — world service time outside decide() and arrivals.
  m.push_back({"sim.self_ms", self_ns * 1e-6, "ms"});
  m.push_back({"sim.ns_per_event",
               ratio(self_ns, static_cast<double>(traced.events)), "ns"});
  m.push_back({"sim.rounds", static_cast<double>(profile.rounds), "count"});
  m.push_back({"sim.elided_fraction",
               1.0 - ratio(static_cast<double>(calls),
                           static_cast<double>(traced.decisions)),
               "ratio"});
  m.push_back({"sim.reassignments_per_job",
               ratio(static_cast<double>(traced.reassignments),
                     static_cast<double>(traced.jobs)),
               "1/job"});
  m.push_back({"sim.peak_live", static_cast<double>(traced.peak_live), "jobs"});
  const std::pair<const char*, EnginePhase> phases[] = {
      {"activate", EnginePhase::kActivate},
      {"allocate", EnginePhase::kAllocate},
      {"event_scan", EnginePhase::kEventScan},
      {"advance", EnginePhase::kAdvance},
      {"completions", EnginePhase::kCompletions},
      {"admission", EnginePhase::kAdmission}};
  for (const auto& [name, phase] : phases) {
    m.push_back({std::string("sim.phase.") + name + "_ms",
                 phase_ms(profile, phase), "ms"});
  }

  // workloads: input generation.
  m.push_back({"workloads.instance_gen_ms", instance_gen_ns * 1e-6, "ms"});
  m.push_back({"workloads.arrival_next_ns",
               ratio(arrival_ns, static_cast<double>(arrival_calls)), "ns"});

  // core: rep-0 validation and metric computation.
  m.push_back({"core.validate_ms", validate_ns * 1e-6, "ms"});
  m.push_back({"core.metrics_ms", metrics_ns * 1e-6, "ms"});

  // exp: how much of the timed round's thread time served worlds. Parallel
  // rounds take the service time from the bare serial replay (a batched
  // world's own wall time includes stepping its neighbours).
  std::vector<double> walls, services;
  for (const Pass& r : rounds) {
    walls.push_back(r.wall_s);
    services.push_back(r.service_s);
  }
  const double round_service =
      workload.threads() == 1 ? median(services) : bare.service_s;
  m.push_back({"exp.parallel_efficiency",
               ratio(round_service, workload.threads() * median(walls)),
               "ratio"});

  // obs: the library's observers, on the workload that attaches them.
  const double observed_s = workload.observed() ? median(services)
                                                : bare.service_s;
  const double records = static_cast<double>(rounds.front().watchdog_records);
  m.push_back({"obs.overhead_ratio", ratio(observed_s, bare.service_s),
               "ratio"});
  m.push_back({"obs.records_per_event",
               ratio(records, static_cast<double>(rounds.front().events)),
               "count"});
  m.push_back({"obs.ns_per_record",
               ratio((observed_s - bare.service_s) * 1e9, records), "ns"});

  // The benchmark's own tracing overhead (against the untraced service time
  // of the same worlds with the workload's own observers) and its timer
  // cross-checks.
  std::fprintf(stderr,
               "perfbench: serial events/s untraced %.4g, traced %.4g "
               "(tracing overhead x%.3f)\n",
               ratio(static_cast<double>(traced.events), observed_s),
               ratio(static_cast<double>(traced.events), traced.service_s),
               ratio(traced.service_s, observed_s));
  const double decide_check = ratio(
      decide_ns,
      profile.phases[static_cast<std::size_t>(EnginePhase::kDecide)].ns);
  const double coverage = ratio(profile.total_ns(), service_ns);
  std::fprintf(stderr,
               "perfbench: wrapper decide / profiler decide phase = %.3f "
               "(%s); profiler phases / world wall = %.3f (%s)\n",
               decide_check, std::abs(decide_check - 1.0) <= 0.1 ? "ok" : "OFF",
               coverage, std::abs(coverage - 1.0) <= 0.1 ? "ok" : "OFF");
}

Outcome run(const ecs::Args& args, FirstWorld& first) {
  const std::string name = args.get_or("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string expect_digest = args.get_or("expect-digest", "");
  const std::string expect_world = args.get_or("expect-world-digest", "");
  const std::unique_ptr<Workload> workload = make_workload(name, seed, first);
  Outcome out;

  // Timed pass: whole rounds until the budget is spent. Every round runs
  // the same worlds, so every round must reproduce round 0's digest. A
  // traced run needs its (parallel) rounds only for their wall time and
  // digest, and spends most of its budget on the serial replays.
  const double budget = trace ? seconds / 3.0 : seconds;
  std::vector<Pass> rounds;
  const std::int64_t start = now_ns();
  do {
    out.attempted += workload->world_count();
    try {
      Pass round =
          trace ? workload->parallel_round() : workload->timed_round();
      if (!rounds.empty() && round.digest != rounds.front().digest) {
        fail(out, workload->world_count(), "round digest changed");
        break;
      }
      rounds.push_back(std::move(round));
    } catch (const std::exception& e) {
      fail(out, workload->world_count(), e.what());
      break;
    }
  } while (static_cast<double>(now_ns() - start) * 1e-9 < budget);
  const double rss = peak_rss_mib();
  if (rounds.empty()) return out;
  std::vector<double> walls;
  for (const Pass& r : rounds) walls.push_back(r.wall_s);
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu timed rounds, median %.3f s, "
               "%llu events and %llu worlds per round\n",
               name.c_str(), static_cast<unsigned long long>(seed),
               rounds.size(), median(walls),
               static_cast<unsigned long long>(rounds.front().events),
               static_cast<unsigned long long>(rounds.front().worlds));
  out.digest = rounds.front().digest;
  if (!expect_digest.empty() && out.digest != expect_digest) {
    fail(out, out.attempted - out.failed,
         "digest " + out.digest + " != checked-in " + expect_digest);
  }

  if (!trace) {
    // Every round simulates the same events, one world at a time.
    double round_s = 0.0;
    try {
      round_s = normalized_round_s(rounds);
    } catch (const std::exception& e) {
      fail(out, out.attempted - out.failed, e.what());
      return out;
    }
    std::vector<double> gauges;
    for (const Pass& r : rounds) {
      gauges.insert(gauges.end(), r.gauge_s.begin(), r.gauge_s.end());
    }
    std::fprintf(stderr,
                 "perfbench: raw events/s %.6g (median round), gauge median "
                 "%.4g us (reference %.4g us), round %.4g s at the "
                 "reference speed\n",
                 static_cast<double>(rounds.front().events) / median(walls),
                 median(gauges) * 1e6, kReferenceGaugeS * 1e6, round_s);
    const SimSummary& sim = rounds.front().sim;
    out.metrics = {{"events_per_s",
                    static_cast<double>(rounds.front().events) / round_s,
                    "1/s"},
                   {"peak_rss_mib", rss, "MiB"},
                   {"max_stretch", sim.max_stretch, "ratio"},
                   {"stretch_p99", sim.stretch_p99, "ratio"},
                   {"served_fraction", sim.served_fraction, "ratio"}};
    return out;
  }

  // Traced pass: the same worlds serially, bare then wrapped.
  out.attempted += 2 * workload->world_count();
  try {
    const Pass bare = workload->replay(nullptr);
    SpanLog log;
    const Pass traced = workload->replay(&log);
    out.world_digest = traced.world_digest;
    if (bare.digest != out.digest || traced.digest != out.digest) {
      fail(out, bare.worlds + traced.worlds,
           "replay digest differs from the timed pass");
    } else if (bare.world_digest != traced.world_digest) {
      fail(out, traced.worlds, "traced replay differs from the bare replay");
    } else if (!expect_world.empty() && out.world_digest != expect_world) {
      fail(out, bare.worlds + traced.worlds,
           "world digest " + out.world_digest + " != checked-in " +
               expect_world);
    }
    layer_metrics(*workload, rounds, bare, traced, log, out.metrics);
    const std::string spans = args.get_or("spans-out", "");
    if (!spans.empty()) log.write_jsonl(spans, name);
  } catch (const std::exception& e) {
    fail(out, 2 * workload->world_count(), e.what());
  }
  return out;
}

void print_json(const Outcome& out, const FirstWorld& first) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"first_world_s\": %.9f, \"digest\": \"%s\", "
              "\"world_digest\": \"%s\", \"metrics\": {",
              out.failed == 0 && !out.metrics.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), first.seconds(),
              out.digest.c_str(), out.world_digest.c_str());
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ecs::Args args = ecs::Args::parse(argc, argv);
    FirstWorld first(args.has("setup-only"));
    try {
      const Outcome out = run(args, first);
      print_json(out, first);
      return 0;
    } catch (const SetupReached&) {
      // The host's speed right after set-up, for run.py to normalize by.
      std::vector<double> gauges;
      for (int i = 0; i < 3; ++i) gauges.push_back(gauge_seconds());
      std::printf("{\"first_world_s\": %.9f, \"gauge_s\": %.9g, "
                  "\"reference_gauge_s\": %.9g}\n",
                  first.seconds(), median(gauges), kReferenceGaugeS);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecs_perfbench: %s\n", e.what());
    return 2;
  }
}
