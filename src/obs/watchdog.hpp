// watchdog.hpp - Online invariant watchdog over the trace stream.
//
// core/validate.hpp checks a finished Schedule; the watchdog checks the
// SAME structural invariants *while the run executes*, flagging the
// violation at the offending event instead of at the end of the run. It is
// a TraceSink: attach it through EngineConfig::watchdog (sim/engine.hpp)
// and the engine routes its trace stream into it — directly, or through a
// tee beside a user sink — the same nullable-observer pattern as
// trace/metrics, so a run without a watchdog is bit-identical and pays
// nothing.
//
// The stream arrives in non-decreasing close time (spans are emitted when
// they end, instants at their time). That ordering makes every check O(1)
// amortized per record: two spans on one resource overlap iff the later-
// closing one begins before the farthest end seen so far on that resource,
// so one {end, job} tail per port/processor suffices; precedence and
// migration need only a small per-(job, run) summary.
//
// Checked invariants:
//  * one-port full-duplex  - per edge, uplinks (send port) pairwise
//    disjoint and downlinks (receive port) pairwise disjoint; per cloud,
//    the mirrored receive/send ports (kPortConflict);
//  * processor exclusivity - executions on one edge or cloud processor
//    pairwise disjoint (kProcessorConflict);
//  * self-overlap          - one job never does two things at once
//    (kSelfOverlap);
//  * precedence            - per (job, run): uplink before execution
//    before downlink (kPrecedence);
//  * no migration          - one run never spans two allocations; moving
//    requires a new run from zero progress (kMigration);
//  * release               - no activity before the job's release
//    (kBeforeRelease);
//  * admission             - a job the engine rejected or shed, or that
//    already completed, records no further activity (kRejectedActivity).
//
// Each violation links the recent decision-provenance records of the jobs
// involved (obs/provenance.hpp), so the report answers not just "what
// broke" but "which decisions put those jobs there".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace ecs::obs {

enum class InvariantKind : std::uint8_t {
  kPortConflict,       ///< one-port model violated (send or receive port)
  kProcessorConflict,  ///< two executions overlap on one processor
  kSelfOverlap,        ///< one job doing two things at once
  kPrecedence,         ///< uplink/exec/downlink order violated in a run
  kMigration,          ///< one run observed on two allocations
  kBeforeRelease,      ///< activity before the job's release
  /// Activity recorded for a job that admission control rejected or shed,
  /// or that had already completed — such a job must have no further spans.
  kRejectedActivity,
};

[[nodiscard]] std::string to_string(InvariantKind kind);

/// One detected violation: the record whose arrival exposed it, the other
/// job involved (resource conflicts; -1 otherwise), and the recent
/// provenance of the jobs involved (offending job's records first).
struct InvariantViolation {
  InvariantKind kind = InvariantKind::kPrecedence;
  TraceRecord offending;
  JobId other_job = -1;
  std::string detail;
  std::vector<ProvenanceRecord> provenance;
};

class InvariantWatchdog final : public TraceSink {
 public:
  /// `provenance_depth`: how many recent provenance records to retain per
  /// job for linking into violations (0 disables linking).
  explicit InvariantWatchdog(int provenance_depth = 4);

  void begin_trace(const TraceMeta& meta) override;
  void record(const TraceRecord& rec) override;
  void end_trace(Time makespan) override;
  /// Counters and job-less instants carry nothing the checks read.
  [[nodiscard]] bool wants_samples() const override { return false; }

  [[nodiscard]] bool ok() const noexcept { return total_violations_ == 0; }
  /// Total violations detected (may exceed violations().size(): storage is
  /// capped so a structurally broken run cannot exhaust memory).
  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return total_violations_;
  }
  [[nodiscard]] const std::vector<InvariantViolation>& violations()
      const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t records_seen() const noexcept {
    return records_seen_;
  }
  [[nodiscard]] std::uint64_t spans_checked() const noexcept {
    return spans_checked_;
  }

  /// Human-readable report: verdict, then each stored violation with its
  /// linked provenance.
  void report(std::ostream& out) const;

 private:
  /// Farthest span end seen on one exclusive resource, and who holds it.
  struct Tail {
    Time end = -kTimeInfinity;
    JobId job = -1;
  };
  /// Precedence/migration summary of the job's current (latest) run.
  struct RunState {
    int run = -1;                  ///< -1: no span seen yet
    int alloc = kAllocUnassigned;  ///< allocation of the run's first span
    Time up_max_end = -kTimeInfinity;
    Time exec_min_begin = kTimeInfinity;
    Time exec_max_end = -kTimeInfinity;
    Time down_min_begin = kTimeInfinity;
  };
  /// Per-job facts that outlive runs.
  struct JobState {
    Time release = -kTimeInfinity;  ///< -inf until the kRelease instant
    Time busy_until = -kTimeInfinity;  ///< farthest end of any span
    bool refused = false;  ///< rejected or shed by admission control
    bool gone = false;     ///< completed or refused: window-compactable
    RunState run;
  };

  /// Index of `job` in the windowed per-job arrays, growing them forward as
  /// needed; -1 when the job already retired past the window base.
  [[nodiscard]] std::int64_t job_index(JobId job);
  /// Read-only variant: -1 when outside the window (never grows storage).
  [[nodiscard]] std::int64_t job_lookup(JobId job) const;
  /// Marks the job's entry compactable and slides the window base past the
  /// gone prefix (streaming runs retire jobs in roughly id order, keeping
  /// the watchdog's per-job memory O(live) like the engine's).
  void retire_job(std::int64_t idx);
  [[nodiscard]] Tail& tail(std::vector<Tail>& tails, int index);
  void check_span(const TraceRecord& rec);
  void check_resource(std::vector<Tail>& tails, int index,
                      const TraceRecord& rec, InvariantKind kind,
                      const char* resource_name);
  void flag(InvariantKind kind, const TraceRecord& rec, JobId other_job,
            std::string detail);
  void remember_provenance(const ProvenanceRecord& rec);
  void append_ring(JobId job, std::vector<ProvenanceRecord>& out) const;

  int depth_;
  std::vector<Tail> edge_cpu_, edge_send_, edge_recv_;
  std::vector<Tail> cloud_cpu_, cloud_send_, cloud_recv_;
  /// Windowed per-job arrays: entry `i` (i >= job_start_) describes job id
  /// job_base_ + (i - job_start_). Entries of completed / refused jobs are
  /// compacted away once they form the window prefix.
  std::vector<JobState> jobs_;
  /// Per-job ring of the last `depth_` provenance records, chronological
  /// order reconstructed via `ring_next_` (the slot to overwrite next).
  std::vector<std::vector<ProvenanceRecord>> rings_;
  std::vector<std::uint32_t> ring_next_;
  JobId job_base_ = 0;        ///< id of the first window entry
  std::size_t job_start_ = 0; ///< index of the first window entry in jobs_
  std::vector<InvariantViolation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t records_seen_ = 0;
  std::uint64_t spans_checked_ = 0;
  TraceMeta meta_;
};

}  // namespace ecs::obs
