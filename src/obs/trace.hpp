// trace.hpp - Structured tracing of one simulation run.
//
// The engine (sim/engine.cpp) can emit a stream of structured records into
// a TraceSink: activity *spans* (every uplink / execution / downlink
// interval, in simulated time), *instants* (releases, completions,
// preemptions, re-executions, faults, recoveries, message losses, policy
// decisions) and *counter samples* (live max-stretch, ready-queue depth,
// per-pool utilization) taken at event granularity.
//
// Tracing is strictly opt-in and zero-cost when disabled: the engine holds
// a nullable TraceSink* and every emission sits behind a null check, so an
// untraced simulation runs the exact same arithmetic in the exact same
// order as a traced one (tests/test_obs.cpp asserts bit-identical results).
// A sink that ignores counter samples and the per-round kDecision instant
// says so through wants_samples(); the engine then skips producing them
// (the live max-stretch sample alone is an O(live) scan per round).
//
// Sinks are single-run, single-threaded objects. Concrete sinks:
//   * MemoryTraceSink (here)          - buffers records, for tests;
//   * TeeTraceSink (here)             - fans out to several sinks;
//   * JsonlTraceSink (jsonl_sink.hpp) - one JSON object per line, lossless;
//   * PerfettoTraceSink (perfetto_sink.hpp) - Chrome trace_event JSON for
//     ui.perfetto.dev, one track per processor and per comm port.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "core/schedule.hpp"
#include "core/time.hpp"

namespace ecs::obs {

enum class TraceKind : std::uint8_t { kSpan, kInstant, kCounter };

/// What a record describes. The first block are span points, the second
/// instant points, the third counter (time-series) points.
enum class TracePoint : std::uint8_t {
  // Spans: one closed activity interval in simulated time.
  kUplink,
  kExec,
  kDownlink,
  // Instants.
  kRelease,      ///< job released (value unused)
  kCompletion,   ///< job finished; value = realized stretch
  kPreemption,   ///< job lost its resource while still needing it
  kReassignment, ///< allocation changed, progress discarded
  kFault,        ///< unannounced cloud crash (cloud set; job set per victim)
  kRecovery,     ///< crashed cloud repaired
  kUplinkLoss,   ///< in-flight uplink corrupted; upload restarts
  kDownlinkLoss, ///< in-flight downlink corrupted; download restarts
  kDecision,     ///< policy invocation; value = directive count
  kDirective,    ///< decision provenance: one applied directive (alloc =
                 ///< resolved target, cloud = previous allocation, value =
                 ///< priority, reason = policy's ReasonCode). Emitted only
                 ///< when EngineConfig::provenance (or a watchdog) is set.
  // Counters, sampled after each decision round.
  kLiveMaxStretch,   ///< max stretch over finished and in-flight jobs
  kReadyQueueDepth,  ///< live jobs holding no resource
  kEdgeUtilization,  ///< fraction of edge processors executing work
  kCloudUtilization, ///< fraction of cloud processors executing work
  // Admission-control instants (appended so earlier numeric values stay
  // stable in serialized traces; see EngineConfig::admission).
  kReject, ///< arrival refused at release; value = live count, reason set
  kShed,   ///< admitted never-started job evicted; value = stretch lower
           ///< bound at eviction, reason set
};

[[nodiscard]] std::string to_string(TracePoint point);
[[nodiscard]] std::string to_string(TraceKind kind);
/// Inverses of to_string; throw std::invalid_argument on unknown names.
[[nodiscard]] TracePoint parse_trace_point(const std::string& name);
[[nodiscard]] TraceKind parse_trace_kind(const std::string& name);

/// One flat trace record. Fields that do not apply to a record's kind keep
/// their defaults (-1 / 0), so records compare and serialize uniformly.
struct TraceRecord {
  TraceKind kind = TraceKind::kInstant;
  TracePoint point = TracePoint::kDecision;
  JobId job = -1;     ///< affected job; -1 for job-less records
  int run = 0;        ///< re-execution index of the job (flow linking)
  int alloc = kAllocUnassigned;  ///< allocation of a span (kAllocEdge/cloud)
  EdgeId origin = -1; ///< origin edge of the span's job
  int cloud = -1;     ///< cloud of a fault / recovery / loss instant
  Time begin = 0.0;   ///< span start; instant / sample time
  Time end = 0.0;     ///< span end; == begin for instants and counters
  double value = 0.0; ///< counter sample / stretch / directive count
  int reason = 0;     ///< ReasonCode of a kDirective record (0 otherwise)

  [[nodiscard]] bool operator==(const TraceRecord&) const = default;
};

/// Static facts about the traced run, delivered before the first record.
struct TraceMeta {
  std::string policy;
  int edge_count = 0;
  int cloud_count = 0;
  int job_count = 0;

  [[nodiscard]] bool operator==(const TraceMeta&) const = default;
};

/// Receives the record stream of one simulation run. begin_trace is called
/// once before the first record, end_trace once after the last (with the
/// makespan). Implementations need not be thread-safe: a sink observes one
/// run at a time.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void begin_trace(const TraceMeta& meta) { (void)meta; }
  virtual void record(const TraceRecord& rec) = 0;
  virtual void end_trace(Time makespan) { (void)makespan; }

  /// Whether this sink reads the sampled part of the stream: the kCounter
  /// records and the job-less kDecision instant emitted every decision
  /// round. The engine asks once per run and emits neither when the answer
  /// is false; every other record arrives unchanged. Sinks that drop those
  /// records anyway return false to save their cost.
  [[nodiscard]] virtual bool wants_samples() const { return true; }
};

/// Buffers everything in memory; the sink used by the test suite.
class MemoryTraceSink final : public TraceSink {
 public:
  void begin_trace(const TraceMeta& meta) override { meta_ = meta; }
  void record(const TraceRecord& rec) override { records_.push_back(rec); }
  void end_trace(Time makespan) override {
    makespan_ = makespan;
    ended_ = true;
  }

  [[nodiscard]] const TraceMeta& meta() const noexcept { return meta_; }
  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] Time makespan() const noexcept { return makespan_; }
  [[nodiscard]] bool ended() const noexcept { return ended_; }

 private:
  TraceMeta meta_;
  std::vector<TraceRecord> records_;
  Time makespan_ = 0.0;
  bool ended_ = false;
};

/// Forwards every call to a set of child sinks (e.g. JSONL + Perfetto from
/// one run). Does not own the children.
class TeeTraceSink final : public TraceSink {
 public:
  void add(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  [[nodiscard]] bool empty() const noexcept { return sinks_.empty(); }

  void begin_trace(const TraceMeta& meta) override {
    for (TraceSink* s : sinks_) s->begin_trace(meta);
  }
  void record(const TraceRecord& rec) override {
    for (TraceSink* s : sinks_) s->record(rec);
  }
  void end_trace(Time makespan) override {
    for (TraceSink* s : sinks_) s->end_trace(makespan);
  }
  /// Samples are produced when any child reads them; the others drop them.
  [[nodiscard]] bool wants_samples() const override {
    for (const TraceSink* s : sinks_) {
      if (s->wants_samples()) return true;
    }
    return false;
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace ecs::obs
