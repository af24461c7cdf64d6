// trace_inspect.cpp - Summarizes a JSONL simulation trace on the terminal.
//
//   trace_inspect --trace=run.jsonl [--metrics=run-metrics.json] [--top=N]
//                 [--summary] [--explain=JOB_ID|worst] [--check]
//                 [--profile=profile.json]
//
// Prints the run's meta line, record counts per trace point, the busiest
// processors by occupied span time, the worst-stretch completions, the most
// disrupted jobs (re-executions: reassignments + fault aborts + losses),
// and the maxima of the sampled time series. With --metrics= it also dumps
// the metrics-registry snapshot (counters, gauges, sketches).
//
//   --summary          compact triage block instead of the full breakdown:
//                      per-event-kind record counts, the trace's simulated
//                      time span, and the top-k busiest resources. The
//                      first thing to run on an unfamiliar trace.
//   --explain=JOB_ID   replay the trace through the provenance log and
//                      print the full causal chain of scheduler decisions
//                      behind that job's final stretch ("worst" picks the
//                      worst-stretch completion). Requires a trace written
//                      with provenance enabled for reason codes; older
//                      traces still yield the directive-free chain.
//   --check            replay the trace through the online invariant
//                      watchdog (obs/watchdog.hpp) and print its report;
//                      exits 3 when a violation is found.
//   --profile=PATH     render an engine self-profile JSON (a run bundle's
//                      profile.json, or ecs_microbench's profile artifact,
//                      raw or wrapped) as the phase-cost table; works with
//                      or without --trace.
//
// The trace, metrics and profile files come from a run bundle
// (`ecs_bench <scenario> --bundle=DIR`, see docs/OBSERVABILITY.md). A usage
// or input error prints one `error: ...` line and exits 1, and so does an
// empty trace (before any output) or one without its end line (after the
// report); a violation found by --check exits 3.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/args.hpp"

namespace {

using namespace ecs;

/// Human label for the resource a span occupied.
std::string span_resource(const obs::TraceRecord& rec) {
  std::ostringstream os;
  switch (rec.point) {
    case obs::TracePoint::kExec:
      if (rec.alloc == kAllocEdge) {
        os << "edge " << rec.origin << " cpu";
      } else {
        os << "cloud " << rec.alloc << " cpu";
      }
      break;
    case obs::TracePoint::kUplink:
      os << "edge " << rec.origin << " -> cloud " << rec.alloc << " uplink";
      break;
    case obs::TracePoint::kDownlink:
      os << "cloud " << rec.alloc << " -> edge " << rec.origin << " downlink";
      break;
    default:
      os << "?";
      break;
  }
  return os.str();
}

void print_metrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read metrics file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::json::Value root = obs::json::parse(buffer.str());

  std::printf("\nmetrics (%s)\n", path.c_str());
  if (const obs::json::Value* counters = root.find("counters")) {
    for (const auto& [name, value] : counters->object) {
      std::printf("  %-38s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value.as_int()));
    }
  }
  if (const obs::json::Value* gauges = root.find("gauges")) {
    for (const auto& [name, value] : gauges->object) {
      std::printf("  %-38s max %.3f\n", name.c_str(), value.as_number());
    }
  }
  if (const obs::json::Value* sketches = root.find("sketches")) {
    for (const auto& [name, value] : sketches->object) {
      std::printf("  %-38s %llu sample(s), p50 %.3f, p99 %.3f, max %.3f\n",
                  name.c_str(),
                  static_cast<unsigned long long>(value.at("count").as_int()),
                  obs::json::to_double(value.at("p50")),
                  obs::json::to_double(value.at("p99")),
                  obs::json::to_double(value.at("max")));
    }
  }
}

/// Renders an engine self-profile JSON (a bundle's profile.json,
/// obs/profiler.hpp schema) as the phase-cost table. Accepts the
/// raw ProfileReport object, the bench wrapper ({"wall_ns": ...,
/// "report": {...}}), or a --json-out summary carrying a "profile" key.
void print_profile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read profile file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::json::Value root = obs::json::parse(buffer.str());
  const obs::json::Value* wrapper = &root;
  if (const obs::json::Value* p = wrapper->find("profile")) wrapper = p;
  const obs::json::Value* doc = wrapper;
  if (const obs::json::Value* r = doc->find("report")) doc = r;
  const obs::json::Value* phases = doc->find("phases");
  if (phases == nullptr || !phases->is_object()) {
    throw std::runtime_error(path + " carries no \"phases\" block — not an "
                             "engine profile artifact?");
  }

  std::printf("engine profile (%s)\n", path.c_str());
  if (const obs::json::Value* workload = wrapper->find("workload")) {
    std::printf("  workload %s\n", workload->as_string().c_str());
  }
  std::printf("  runs %lld, rounds %lld, events %lld, tick %.4f ns\n",
              static_cast<long long>(doc->at("runs").as_int()),
              static_cast<long long>(doc->at("rounds").as_int()),
              static_cast<long long>(doc->at("events").as_int()),
              doc->at("tick_ns").as_number());
  double total_ns = 0.0;
  for (const auto& [name, phase] : phases->object) {
    total_ns += phase.at("ns").as_number();
  }
  if (const obs::json::Value* wall = wrapper->find("wall_ns")) {
    const double wall_ns = wall->as_number();
    std::printf("  wall %.3f ms, coverage %.3f\n", wall_ns / 1e6,
                wall_ns > 0.0 ? total_ns / wall_ns : 0.0);
  }
  std::printf("  %-14s %12s %12s %10s %8s\n", "phase", "laps", "total_ms",
              "ns/lap", "share");
  for (const auto& [name, phase] : phases->object) {
    const double ns = phase.at("ns").as_number();
    const auto laps = phase.at("count").as_int();
    std::printf("  %-14s %12lld %12.3f %10.1f %7.1f%%\n", name.c_str(),
                static_cast<long long>(laps), ns / 1e6,
                laps > 0 ? ns / static_cast<double>(laps) : 0.0,
                total_ns > 0.0 ? 100.0 * ns / total_ns : 0.0);
  }
  std::printf("  %-14s %12s %12.3f\n", "total", "", total_ns / 1e6);
  if (const obs::json::Value* decisions = doc->find("decision_ns")) {
    for (const auto& [policy, sketch] : decisions->object) {
      std::printf("  decision latency [%s] (ns): count=%lld mean=%.1f "
                  "p50=%.3g p90=%.3g p99=%.3g p99.9=%.3g max=%.3g\n",
                  policy.c_str(),
                  static_cast<long long>(sketch.at("count").as_int()),
                  sketch.at("mean").as_number(),
                  sketch.at("p50").as_number(), sketch.at("p90").as_number(),
                  sketch.at("p99").as_number(),
                  sketch.at("p999").as_number(),
                  sketch.at("max").as_number());
    }
  }
  std::printf("  diagnostics: elided_rounds=%lld scanned_slots=%lld "
              "peak_live=%lld peak_tracked=%lld\n",
              static_cast<long long>(doc->at("elided_rounds").as_int()),
              static_cast<long long>(doc->at("scanned_slots").as_int()),
              static_cast<long long>(doc->at("peak_live").as_int()),
              static_cast<long long>(doc->at("peak_tracked").as_int()));
}

/// Replays a parsed trace through a sink in the live call order, so the
/// offline tools see exactly what an attached sink saw during the run.
void replay(const obs::JsonlTrace& trace, obs::TraceSink& sink) {
  sink.begin_trace(trace.meta);
  for (const obs::TraceRecord& rec : trace.records) sink.record(rec);
  if (trace.complete) sink.end_trace(trace.makespan);
}

/// The program: returns its exit status, and throws on a usage or input
/// error (main prints it).
int inspect(const Args& args) {
  std::string trace_path = args.get_or("trace", "");
  if (trace_path.empty() && !args.positional().empty()) {
    trace_path = args.positional().front();
  }
  const std::string metrics_path = args.get_or("metrics", "");
  const std::string profile_path = args.get_or("profile", "");
  const int top = static_cast<int>(args.get_int("top", 5));
  const bool summary = args.get_bool("summary", false);
  const std::string explain = args.get_or("explain", "");
  const bool check = args.get_bool("check", false);
  args.reject_unread();
  if (trace_path.empty() && metrics_path.empty() && profile_path.empty()) {
    throw std::invalid_argument(
        "nothing to inspect; usage: trace_inspect --trace=run.jsonl "
        "[--metrics=metrics.json] [--top=N] [--summary] "
        "[--explain=JOB_ID|worst] [--check] [--profile=profile.json]");
  }
  if ((!explain.empty() || check) && trace_path.empty()) {
    throw std::invalid_argument("--explain/--check need --trace=run.jsonl");
  }
  // A malformed job id fails before the trace is read.
  JobId explain_job = -1;
  if (!explain.empty() && explain != "worst") {
    std::size_t used = 0;
    try {
      explain_job = std::stoi(explain, &used);
    } catch (const std::exception&) {
    }
    if (explain_job < 0 || used != explain.size()) {
      throw std::invalid_argument(
          "--explain expects a job id or 'worst', got '" + explain + "'");
    }
  }

  int status = 0;
  bool incomplete = false;
  if (!trace_path.empty()) {
    obs::JsonlTrace trace;
    try {
      trace = obs::read_jsonl_trace_file(trace_path);
    } catch (const std::exception& e) {
      throw std::runtime_error("cannot parse " + trace_path + ": " +
                               e.what());
    }
    // A sink writes the meta line first, so a trace without one (a bundle
    // whose run failed) holds nothing to report.
    if (trace.meta.policy.empty() && trace.records.empty() &&
        !trace.complete) {
      throw std::runtime_error(trace_path + ": empty trace");
    }
    incomplete = !trace.complete;

    std::printf("trace %s\n", trace_path.c_str());
    std::printf("  policy %s, %d edge(s), %d cloud(s), %d job(s)\n",
                trace.meta.policy.c_str(), trace.meta.edge_count,
                trace.meta.cloud_count, trace.meta.job_count);
    if (trace.complete) {
      std::printf("  makespan %.4f, %zu record(s)\n", trace.makespan,
                  trace.records.size());
    } else {
      std::printf("  INCOMPLETE (no end line), %zu record(s)\n",
                  trace.records.size());
    }

    std::map<std::string, std::uint64_t> by_point;
    std::map<std::string, std::uint64_t> by_kind;       // span/instant/counter
    std::map<std::string, double> busy;                 // resource -> time
    std::map<JobId, std::uint64_t> disruptions;         // job -> re-executions
    std::vector<std::pair<double, JobId>> completions;  // stretch, job
    std::map<std::string, double> counter_max;
    double t_min = std::numeric_limits<double>::infinity();
    double t_max = -std::numeric_limits<double>::infinity();
    for (const obs::TraceRecord& rec : trace.records) {
      ++by_point[to_string(rec.kind) + "/" + to_string(rec.point)];
      ++by_kind[to_string(rec.kind)];
      t_min = std::min(t_min, rec.begin);
      t_max = std::max(t_max, rec.end);
      switch (rec.kind) {
        case obs::TraceKind::kSpan:
          busy[span_resource(rec)] += rec.end - rec.begin;
          break;
        case obs::TraceKind::kInstant:
          if (rec.point == obs::TracePoint::kCompletion) {
            completions.push_back({rec.value, rec.job});
          }
          if (rec.job >= 0 && (rec.point == obs::TracePoint::kReassignment ||
                               rec.point == obs::TracePoint::kFault ||
                               rec.point == obs::TracePoint::kUplinkLoss ||
                               rec.point == obs::TracePoint::kDownlinkLoss)) {
            ++disruptions[rec.job];
          }
          break;
        case obs::TraceKind::kCounter:
          counter_max[to_string(rec.point)] =
              std::max(counter_max[to_string(rec.point)], rec.value);
          break;
      }
    }

    if (summary) {
      // The triage block: everything needed to decide whether a trace is
      // worth a deeper look, in a dozen lines.
      std::printf("\nsummary\n  records by kind\n");
      for (const auto& [name, count] : by_kind) {
        std::printf("    %-10s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
      }
      if (t_max >= t_min) {
        std::printf("  simulated time span    [%.4f, %.4f]  (%.4f)\n", t_min,
                    t_max, t_max - t_min);
      }
      if (!busy.empty()) {
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto& [name, time] : busy) ranked.push_back({time, name});
        std::sort(ranked.rbegin(), ranked.rend());
        std::printf("  busiest resources (occupied simulated time)\n");
        for (int i = 0; i < top && i < static_cast<int>(ranked.size());
             ++i) {
          std::printf("    %-34s %10.4f\n", ranked[i].second.c_str(),
                      ranked[i].first);
        }
      }
    }

    if (!summary) {
    std::printf("\nrecords by point\n");
    for (const auto& [name, count] : by_point) {
      std::printf("  %-28s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    }

    if (!counter_max.empty()) {
      std::printf("\ntime-series maxima\n");
      for (const auto& [name, value] : counter_max) {
        std::printf("  %-28s %.4f\n", name.c_str(), value);
      }
    }

    if (!busy.empty()) {
      std::vector<std::pair<double, std::string>> ranked;
      for (const auto& [name, time] : busy) ranked.push_back({time, name});
      std::sort(ranked.rbegin(), ranked.rend());
      std::printf("\nbusiest resources (occupied simulated time)\n");
      for (int i = 0; i < top && i < static_cast<int>(ranked.size()); ++i) {
        std::printf("  %-34s %10.4f\n", ranked[i].second.c_str(),
                    ranked[i].first);
      }
    }

    if (!completions.empty()) {
      std::sort(completions.rbegin(), completions.rend());
      std::printf("\nworst stretches\n");
      for (int i = 0; i < top && i < static_cast<int>(completions.size());
           ++i) {
        std::printf("  J%-6d stretch %8.4f\n", completions[i].second,
                    completions[i].first);
      }
    }

    if (!disruptions.empty()) {
      std::vector<std::pair<std::uint64_t, JobId>> ranked;
      for (const auto& [job, count] : disruptions) {
        ranked.push_back({count, job});
      }
      std::sort(ranked.rbegin(), ranked.rend());
      std::printf("\nmost disrupted jobs (reassignments + faults + losses)\n");
      for (int i = 0; i < top && i < static_cast<int>(ranked.size()); ++i) {
        std::printf("  J%-6d %llu event(s)\n", ranked[i].second,
                    static_cast<unsigned long long>(ranked[i].first));
      }
    }
    }  // !summary

    if (!explain.empty()) {
      obs::ProvenanceLog log;
      replay(trace, log);
      JobId job = explain_job;
      if (explain == "worst") {
        job = log.worst_job();
        if (job < 0) {
          throw std::invalid_argument(
              "--explain=worst: trace has no completions");
        }
      } else if (job >= log.job_count()) {
        throw std::invalid_argument(
            "--explain=" + std::to_string(job) + ": trace has " +
            std::to_string(log.job_count()) + " job(s)");
      }
      std::cout << "\n";
      log.explain(job, std::cout);
    }

    if (check) {
      obs::InvariantWatchdog watchdog;
      replay(trace, watchdog);
      std::cout << "\n";
      watchdog.report(std::cout);
      if (!watchdog.ok()) status = 3;
    }
  }

  if (!metrics_path.empty()) print_metrics(metrics_path);
  if (!profile_path.empty()) {
    if (!trace_path.empty() || !metrics_path.empty()) std::printf("\n");
    print_profile(profile_path);
  }
  // A run cut short still gets its report, then fails unless --check
  // already failed it with a violation.
  if (incomplete && status == 0) {
    throw std::runtime_error(trace_path + ": incomplete trace (no end line)");
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return inspect(Args::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);  // the report of a truncated trace comes first
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
