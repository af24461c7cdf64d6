// Tests for the observability layer (obs/): the engine's
// zero-cost-when-disabled guarantee, the in-memory / JSONL / Perfetto trace
// sinks, and the metrics registry.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "obs/json.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_sink.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "run_digest.hpp"
#include "sched/factory.hpp"
#include "sched/fixed.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

Instance busy_instance() {
  RandomInstanceConfig cfg;
  cfg.n = 40;
  cfg.ccr = 1.0;
  cfg.load = 0.5;
  Rng rng(7);
  return make_random_instance(cfg, rng);
}

Instance one_cloud_job() {
  Instance instance;
  instance.platform = Platform({0.5}, 1);
  instance.jobs = {{0, 0, 2.0, 1.0, 1.5, 0.5}};
  return instance;
}

TEST(ObsEngine, TracedRunIsBitIdenticalToUntraced) {
  const Instance instance = busy_instance();
  const auto plain_policy = make_policy("srpt");
  const SimResult plain = simulate(instance, *plain_policy);

  obs::MemoryTraceSink sink;
  obs::MetricsRegistry registry;
  EngineConfig config;
  config.trace = &sink;
  config.metrics = &registry;
  const auto traced_policy = make_policy("srpt");
  const SimResult traced = simulate(instance, *traced_policy, config);

  // Exact equality on purpose: tracing must not perturb the arithmetic.
  expect_same_run(Variant{traced, {}}, Variant{plain, {}}, "traced run");
  EXPECT_TRUE(sink.ended());
  EXPECT_FALSE(sink.records().empty());
}

TEST(ObsEngine, SpansAndInstantsOfOneCloudJob) {
  const Instance instance = one_cloud_job();
  FixedPolicy policy({0}, {0.0});
  obs::MemoryTraceSink sink;
  EngineConfig config;
  config.trace = &sink;
  const SimResult result = simulate(instance, policy, config);
  // 1 (release) + 1.5 (up) + 2 (work at speed 1) + 0.5 (down).
  EXPECT_NEAR(result.completions[0], 5.0, 1e-9);

  EXPECT_EQ(sink.meta().policy, policy.name());
  EXPECT_EQ(sink.meta().edge_count, 1);
  EXPECT_EQ(sink.meta().cloud_count, 1);
  EXPECT_EQ(sink.meta().job_count, 1);
  ASSERT_TRUE(sink.ended());
  EXPECT_NEAR(sink.makespan(), 5.0, 1e-9);

  std::vector<obs::TraceRecord> spans;
  int releases = 0;
  int completions = 0;
  for (const obs::TraceRecord& rec : sink.records()) {
    if (rec.kind == obs::TraceKind::kSpan) spans.push_back(rec);
    if (rec.point == obs::TracePoint::kRelease) ++releases;
    if (rec.point == obs::TracePoint::kCompletion) {
      ++completions;
      // best time = min(edge 2/0.5, cloud 1.5+2+0.5) = 4; stretch = 4/4.
      EXPECT_NEAR(rec.value, 1.0, 1e-9);
    }
  }
  EXPECT_EQ(releases, 1);
  EXPECT_EQ(completions, 1);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].point, obs::TracePoint::kUplink);
  EXPECT_NEAR(spans[0].begin, 1.0, 1e-9);
  EXPECT_NEAR(spans[0].end, 2.5, 1e-9);
  EXPECT_EQ(spans[1].point, obs::TracePoint::kExec);
  EXPECT_NEAR(spans[1].begin, 2.5, 1e-9);
  EXPECT_NEAR(spans[1].end, 4.5, 1e-9);
  EXPECT_EQ(spans[2].point, obs::TracePoint::kDownlink);
  EXPECT_NEAR(spans[2].begin, 4.5, 1e-9);
  EXPECT_NEAR(spans[2].end, 5.0, 1e-9);
  for (const obs::TraceRecord& span : spans) {
    EXPECT_EQ(span.job, 0);
    EXPECT_EQ(span.run, 0);
    EXPECT_EQ(span.alloc, 0);
    EXPECT_EQ(span.origin, 0);
  }
}

TEST(ObsJsonl, RoundTripsExactly) {
  const Instance instance = busy_instance();
  obs::MemoryTraceSink memory;
  std::ostringstream out;
  obs::JsonlTraceSink jsonl(out);
  obs::TeeTraceSink tee;
  tee.add(&memory);
  tee.add(&jsonl);
  EngineConfig config;
  config.trace = &tee;
  const auto policy = make_policy("ssf-edf");
  (void)simulate(instance, *policy, config);

  std::istringstream in(out.str());
  const obs::JsonlTrace parsed = obs::read_jsonl_trace(in);
  EXPECT_TRUE(parsed.complete);
  EXPECT_EQ(parsed.meta, memory.meta());
  EXPECT_EQ(parsed.makespan, memory.makespan());
  ASSERT_EQ(parsed.records.size(), memory.records().size());
  for (std::size_t i = 0; i < parsed.records.size(); ++i) {
    EXPECT_TRUE(parsed.records[i] == memory.records()[i]) << "record " << i;
  }
}

TEST(ObsJsonl, RejectsMalformedLines) {
  std::istringstream in("{\"type\":\"meta\",\"policy\":\"p\",\"edges\":1,"
                        "\"clouds\":1,\"jobs\":0}\nnot json\n");
  EXPECT_THROW((void)obs::read_jsonl_trace(in), std::runtime_error);
}

TEST(ObsPerfetto, ValidJsonMonotoneTracksAndFlowEvents) {
  const Instance instance = one_cloud_job();
  FixedPolicy policy({0}, {0.0});
  std::ostringstream out;
  obs::PerfettoTraceSink sink(out);
  EngineConfig config;
  config.trace = &sink;
  (void)simulate(instance, policy, config);

  const obs::json::Value root = obs::json::parse(out.str());
  const obs::json::Value& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::map<std::int64_t, double> last_start;  // per-track last "X" ts
  int slices = 0;
  int thread_names = 0;
  bool flow_start = false;
  bool flow_step = false;
  bool flow_end = false;
  for (const obs::json::Value& ev : events.array) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "X") {
      ++slices;
      const std::int64_t tid = ev.at("tid").as_int();
      const double ts = ev.at("ts").as_number();
      const auto it = last_start.find(tid);
      if (it != last_start.end()) {
        EXPECT_GE(ts, it->second) << "track " << tid;
      }
      last_start[tid] = ts;
      EXPECT_GE(ev.at("dur").as_number(), 0.0);
    } else if (ph == "M" &&
               ev.at("name").as_string() == "thread_name") {
      ++thread_names;
    } else if (ph == "s") {
      flow_start = true;
    } else if (ph == "t") {
      flow_step = true;
    } else if (ph == "f") {
      flow_end = true;
      EXPECT_EQ(ev.at("bp").as_string(), "e");
    }
  }
  // Comm spans appear on both ports: uplink x2 + exec + downlink x2.
  EXPECT_EQ(slices, 5);
  // "events" track + 3 tracks per edge + 3 per cloud.
  EXPECT_EQ(thread_names, 1 + 3 * 1 + 3 * 1);
  // The job's single cloud run chains uplink -> exec -> downlink.
  EXPECT_TRUE(flow_start);
  EXPECT_TRUE(flow_step);
  EXPECT_TRUE(flow_end);
}

TEST(ObsMetrics, CountersGaugesAndJson) {
  obs::MetricsRegistry registry;
  registry.add(registry.counter("c"), 5);
  registry.add(registry.counter("c"), 2);
  const obs::MetricsRegistry::Id g = registry.gauge("g");
  EXPECT_EQ(registry.gauge("g"), g);
  registry.gauge_max(g, 2.5);
  registry.gauge_max(g, 1.5);  // a high-water gauge keeps 2.5
  registry.sketch_observe(registry.sketch("s"), 4.0);

  EXPECT_EQ(registry.counter_value("c"), 7u);
  EXPECT_DOUBLE_EQ(registry.gauge_value("g"), 2.5);
  EXPECT_THROW((void)registry.counter_value("missing"), std::out_of_range);
  EXPECT_THROW((void)registry.gauge_value("missing"), std::out_of_range);

  std::ostringstream out;
  registry.write_json(out);
  const obs::json::Value root = obs::json::parse(out.str());
  EXPECT_EQ(root.at("counters").at("c").as_int(), 7);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("g").as_number(), 2.5);
  EXPECT_EQ(root.at("sketches").at("s").at("count").as_int(), 1);
  // Exactly the three families.
  EXPECT_EQ(root.object.size(), 3u);
}

TEST(ObsMetrics, EngineWritesStatsAndTheProfilerWritesPhases) {
  const Instance instance = busy_instance();
  obs::MetricsRegistry registry;
  obs::EngineProfiler profiler;
  EngineConfig config;
  config.metrics = &registry;
  const auto policy = make_policy("srpt");
  const SimResult result = simulate(instance, *policy, config);

  // The engine's counters, gauges and sketches mirror SimStats...
  EXPECT_EQ(registry.counter_value("engine.events"), result.stats.events);
  EXPECT_EQ(registry.counter_value("engine.decisions"),
            result.stats.decisions);
  EXPECT_EQ(registry.counter_value("engine.reassignments"),
            result.stats.reassignments);
  EXPECT_EQ(registry.counter_value("engine.preemptions"),
            result.stats.preemptions);
  EXPECT_EQ(registry.gauge_value("engine.max_queue_depth"),
            static_cast<double>(result.stats.max_queue_depth));
  EXPECT_EQ(registry.gauge_value("engine.peak_live"),
            static_cast<double>(result.stats.peak_live));
  EXPECT_EQ(registry.sketch_value("job.stretch").count(),
            static_cast<std::uint64_t>(instance.job_count()));
  EXPECT_EQ(registry.sketch_value("job.stretch").max(),
            result.stats.max_stretch);
  EXPECT_EQ(registry.sketch_value("job.queue_wait").count(),
            static_cast<std::uint64_t>(instance.job_count()));

  // ...and phase times reach a registry through the profiler's report,
  // which leaves the series the engine writes to the engine.
  config.profiler = &profiler;
  const auto profiled = make_policy("srpt");
  (void)simulate(instance, *profiled, config);
  profiler.report().to_metrics(registry);
  EXPECT_GT(registry.counter_value("engine.profile.phase.decide.ns"), 0u);
  EXPECT_GT(registry.counter_value("engine.profile.phase.decide.laps"), 0u);
  EXPECT_THROW((void)registry.counter_value("engine.profile.events"),
               std::out_of_range);
  EXPECT_THROW((void)registry.gauge_value("engine.profile.peak_live"),
               std::out_of_range);
}

// The registry's stretch sketch, fed by the engine at each completion,
// equals a sketch built independently from the completion times.
TEST(ObsMetrics, StretchSketchMatchesTheCompletionsPath) {
  for (const std::string policy_name : {"srpt", "ssf-edf"}) {
    for (const int w : {0, 1}) {
      SCOPED_TRACE(cell_name(policy_name, w));
      const World world = corpus_world(w);
      obs::MetricsRegistry registry;
      EngineConfig config;
      config.metrics = &registry;
      const auto policy = make_policy(policy_name);
      const Variant v = run_variant(world, *policy, config, false);

      obs::QuantileSketch want;
      for (const JobMetrics& jm :
           metrics_from_completions(world.instance, v.result.completions)
               .per_job) {
        want.observe(jm.stretch);
      }
      const obs::QuantileSketch got = registry.sketch_value("job.stretch");
      ASSERT_EQ(got.count(), want.count());
      EXPECT_EQ(got.min(), want.min());
      EXPECT_EQ(got.max(), want.max());
      for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        EXPECT_EQ(got.quantile(q), want.quantile(q)) << "q " << q;
      }
      // Buckets are order-free; the sum is added in completion order.
      EXPECT_NEAR(got.sum(), want.sum(), 1e-12 * want.sum());
    }
  }
}

TEST(ObsTrace, TeeWantsSamplesWhenAnyChildDoes) {
  obs::MemoryTraceSink memory;
  obs::ProvenanceLog provenance;
  obs::TeeTraceSink tee;
  EXPECT_FALSE(tee.wants_samples());  // no child reads anything
  tee.add(&provenance);
  EXPECT_FALSE(provenance.wants_samples());
  EXPECT_FALSE(tee.wants_samples());
  tee.add(&memory);
  EXPECT_TRUE(memory.wants_samples());
  EXPECT_TRUE(tee.wants_samples());
}

TEST(ObsJson, NonFiniteNumbersRoundTrip) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Lossless string policy (the default for our own formats).
  EXPECT_EQ(obs::json::number(nan), "null");
  EXPECT_EQ(obs::json::number(inf), "\"Infinity\"");
  EXPECT_EQ(obs::json::number(-inf), "\"-Infinity\"");
  // Clamp policy for plain-number consumers: saturated, never silently 0.
  EXPECT_EQ(obs::json::number(inf, obs::json::NonFinitePolicy::kClamp),
            "1e308");
  EXPECT_EQ(obs::json::number(-inf, obs::json::NonFinitePolicy::kClamp),
            "-1e308");
  EXPECT_EQ(obs::json::number(nan, obs::json::NonFinitePolicy::kClamp),
            "null");
  // number() -> parse -> to_double round-trips every class of value.
  for (const double v : {0.0, -1.5, 1e-300, 3.14159, inf, -inf}) {
    const obs::json::Value parsed = obs::json::parse(obs::json::number(v));
    EXPECT_EQ(obs::json::to_double(parsed), v);
  }
  EXPECT_TRUE(std::isnan(
      obs::json::to_double(obs::json::parse(obs::json::number(nan)))));
  EXPECT_THROW((void)obs::json::to_double(obs::json::parse("\"abc\"")),
               std::runtime_error);
}

TEST(ObsMetrics, SketchFamilyAndJson) {
  obs::MetricsRegistry registry;
  const obs::MetricsRegistry::Id id = registry.sketch("job.stretch.sketch");
  for (int i = 1; i <= 100; ++i) {
    registry.sketch_observe(id, static_cast<double>(i));
  }
  // Merging a worker-private sketch accumulates exactly.
  obs::QuantileSketch worker;
  for (int i = 101; i <= 200; ++i) worker.observe(static_cast<double>(i));
  registry.sketch_merge(id, worker);

  const obs::QuantileSketch snap = registry.sketch_value("job.stretch.sketch");
  EXPECT_EQ(snap.count(), 200u);
  EXPECT_DOUBLE_EQ(snap.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.max(), 200.0);
  EXPECT_NEAR(snap.quantile(0.5), 100.0, 100.0 * 2.0 * obs::QuantileSketch::kAlpha + 1.0);
  // Re-registration returns the same instrument.
  EXPECT_EQ(registry.sketch("job.stretch.sketch"), id);
  EXPECT_THROW((void)registry.sketch_value("missing"), std::out_of_range);

  std::ostringstream out;
  registry.write_json(out);
  const obs::json::Value root = obs::json::parse(out.str());
  const obs::json::Value& s =
      root.at("sketches").at("job.stretch.sketch");
  EXPECT_EQ(s.at("count").as_int(), 200);
  EXPECT_DOUBLE_EQ(s.at("min").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(s.at("max").as_number(), 200.0);
  EXPECT_GT(s.at("p99").as_number(), s.at("p50").as_number());
}

TEST(ObsMetrics, PrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.add(registry.counter("engine.events"), 42);
  registry.gauge_max(registry.gauge("queue.depth"), 3.0);
  const auto sk = registry.sketch("job.stretch");
  for (int i = 1; i <= 10; ++i) {
    registry.sketch_observe(sk, static_cast<double>(i));
  }

  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  // Names sanitized to the Prometheus charset, one TYPE line per family.
  EXPECT_NE(text.find("# TYPE engine_events counter\nengine_events 42\n"),
            std::string::npos);
  // A gauge is one series: its high-water mark.
  EXPECT_NE(text.find("# TYPE queue_depth gauge\nqueue_depth 3\n"),
            std::string::npos);
  // Sketches export as quantile summaries; nothing is a histogram.
  EXPECT_NE(text.find("# TYPE job_stretch summary"), std::string::npos);
  EXPECT_NE(text.find("job_stretch{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("job_stretch{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("job_stretch_count 10"), std::string::npos);
  EXPECT_NE(text.find("job_stretch_max 10"), std::string::npos);
  EXPECT_EQ(text.find(" histogram"), std::string::npos);
  EXPECT_EQ(text.find("_last"), std::string::npos);
}

TEST(ObsTrace, PointNamesRoundTrip) {
  for (int p = 0; p <= static_cast<int>(obs::TracePoint::kCloudUtilization);
       ++p) {
    const auto point = static_cast<obs::TracePoint>(p);
    EXPECT_EQ(obs::parse_trace_point(to_string(point)), point);
  }
  EXPECT_THROW((void)obs::parse_trace_point("nope"), std::invalid_argument);
  EXPECT_THROW((void)obs::parse_trace_kind("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace ecs
