// provenance.hpp - Decision provenance: per-job causal chains.
//
// The engine, when EngineConfig::provenance is set, emits one
// TracePoint::kDirective instant for every directive it applies (and every
// deduplicated keep-decision), carrying the policy's ReasonCode. Together
// with the lifecycle instants the trace already has (release, preemption,
// fault abort, message loss, completion), those records tell the full
// causal story of a job: why it was placed where, what evicted it, and
// what its final stretch cost.
//
// ProvenanceLog distills that story from the trace stream. It is a
// TraceSink, so it can observe a live run directly (attach via
// EngineConfig::trace or a TeeTraceSink) or replay a parsed JSONL trace —
// tools/trace_inspect --explain=JOB does the latter.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/reason.hpp"
#include "obs/trace.hpp"

namespace ecs::obs {

/// What one provenance step did to the job.
enum class ProvenanceKind : std::uint8_t {
  kRelease,      ///< job entered the system
  kAssign,       ///< first allocation (source was unassigned)
  kReassign,     ///< allocation changed; progress discarded
  kKeep,         ///< policy (re)confirmed the current allocation
  kPreempt,      ///< lost its resource while still needing it
  kFaultAbort,   ///< cloud crash wiped the run
  kUplinkLoss,   ///< upload corrupted; re-transmitted from zero
  kDownlinkLoss, ///< download corrupted; re-transmitted
  kComplete,     ///< job finished; value = realized stretch
  kReject,       ///< admission refused the arrival; value = resident count
  kShed,         ///< admission evicted it before it started; value = bound
};

[[nodiscard]] std::string to_string(ProvenanceKind kind);

/// One step of a job's lifecycle, reconstructed from a trace record.
struct ProvenanceRecord {
  ProvenanceKind kind = ProvenanceKind::kKeep;
  Time time = 0.0;
  JobId job = -1;
  int run = 0;                    ///< re-execution index at the event
  EdgeId origin = -1;             ///< job's origin edge
  int source = kAllocUnassigned;  ///< allocation before the step
  int target = kAllocUnassigned;  ///< allocation after the step
  ReasonCode reason = ReasonCode::kUnspecified;
  double value = 0.0;             ///< directive priority / stretch

  [[nodiscard]] bool operator==(const ProvenanceRecord&) const = default;
};

/// Human-readable allocation name: "edgeJ" / "cloudK" / "unassigned".
[[nodiscard]] std::string alloc_name(int alloc, EdgeId origin);

/// Maps a trace record onto its provenance meaning. Records that carry no
/// per-job lifecycle information (spans, counters, policy invocations,
/// cloud-level fault/recovery instants) map to nullopt.
[[nodiscard]] std::optional<ProvenanceRecord> provenance_from_trace(
    const TraceRecord& rec);

/// Collects per-job provenance chains from a trace stream.
///
/// Consecutive duplicates are dropped: a kDirective record followed by the
/// legacy kReassignment instant for the same move (same job, time, source,
/// target) yields one chain entry — the directive's, which carries the
/// reason. Traces recorded without provenance still produce chains from
/// the legacy instants alone, just without reasons for the moves.
class ProvenanceLog final : public TraceSink {
 public:
  void begin_trace(const TraceMeta& meta) override;
  void record(const TraceRecord& rec) override;
  void end_trace(Time makespan) override;
  /// Counters and job-less instants map to no provenance step.
  [[nodiscard]] bool wants_samples() const override { return false; }

  [[nodiscard]] const TraceMeta& meta() const noexcept { return meta_; }
  [[nodiscard]] Time makespan() const noexcept { return makespan_; }
  /// Number of job slots (max observed job id + 1, at least meta.jobs).
  [[nodiscard]] int job_count() const noexcept {
    return static_cast<int>(chains_.size());
  }
  /// The job's chain in event order; empty for ids never seen.
  [[nodiscard]] const std::vector<ProvenanceRecord>& chain(JobId job) const;

  /// True when the chain tells a complete story: a release, at least one
  /// explicit placement, and a completion, in that order.
  [[nodiscard]] bool complete_chain(JobId job) const;

  /// Realized stretch of the job (from its kComplete record).
  [[nodiscard]] std::optional<double> final_stretch(JobId job) const;

  /// Completed job with the largest realized stretch; -1 when none.
  [[nodiscard]] JobId worst_job() const;

  /// Prints the job's causal story, one step per line.
  void explain(JobId job, std::ostream& out) const;

 private:
  TraceMeta meta_;
  std::vector<std::vector<ProvenanceRecord>> chains_;
  Time makespan_ = 0.0;
};

}  // namespace ecs::obs
