// bench_overload.cpp - Graceful degradation under sustained overload.
//
// Sweeps the arrival rate of a streaming workload across (and past) the
// platform's service capacity and reports, per rate point, how admission
// control trades jobs for tail latency: the refusal rate (rejections +
// sheds over all arrivals) against the p50 / p90 / p99 / p99.9 stretch of
// the jobs that WERE admitted and completed. The headline claim this bench
// pins: with admission on, the admitted tail stays bounded as the offered
// load grows — the refusal rate absorbs the overload — while with
// admission off the tail (and the live set) grows without bound.
//
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
//   --log-level=L       stderr log threshold
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/heartbeat.hpp"
#include "obs/sketch.hpp"
#include "obs/trace.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/args.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/random_instances.hpp"

namespace {

using namespace ecs;

/// Feeds every completion's realized stretch (the kCompletion instant's
/// value) into a quantile sketch; ignores the rest of the trace stream.
/// O(1) memory regardless of n — soak-friendly.
class StretchTailSink final : public obs::TraceSink {
 public:
  void record(const obs::TraceRecord& rec) override {
    if (rec.kind == obs::TraceKind::kInstant &&
        rec.point == obs::TracePoint::kCompletion) {
      sketch_.observe(rec.value);
    }
  }
  [[nodiscard]] bool wants_samples() const override { return false; }
  [[nodiscard]] const obs::QuantileSketch& sketch() const { return sketch_; }

 private:
  obs::QuantileSketch sketch_;
};

struct Row {
  double rate = 0.0;
  SimStats stats;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0, max = 0.0;
  double wall_seconds = 0.0;
  double refusal_rate = 0.0;
};

int run(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  bench::apply_log_level(args);
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
  const std::string json_path = args.get_or("json-out", "");
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
    std::fprintf(stderr, "unknown --rule '%s'\n", rule_name.c_str());
    return 2;
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

  std::vector<Row> rows;
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
    StretchTailSink sink;
    config.trace = &sink;

    const auto arrivals = make_arrival_stream(acfg);
    const auto policy = make_policy(policy_name);
    const auto start = std::chrono::steady_clock::now();
    const SimResult result =
        simulate_stream(base, *arrivals, *policy, config);

    Row row;
    row.rate = rate;
    row.stats = result.stats;
    row.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const obs::QuantileSketch& sketch = sink.sketch();
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
  for (const Row& r : rows) {
    std::printf(
        "%8g %9llu %9llu %8.3f %9llu %9.2f %8.2f %8.2f %8.2f %8.2f %8.3f\n",
        r.rate, static_cast<unsigned long long>(r.stats.admitted),
        static_cast<unsigned long long>(r.stats.rejections + r.stats.sheds),
        r.refusal_rate, static_cast<unsigned long long>(r.stats.peak_live),
        r.p50, r.p90, r.p99, r.p999, r.max, r.wall_seconds);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write JSON to %s\n", json_path.c_str());
      return 1;
    }
    out << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
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

}  // namespace

int main(int argc, char** argv) {
  return ecs::bench::guarded_main([&] { return run(argc, argv); });
}
