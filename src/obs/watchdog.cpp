#include "obs/watchdog.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace ecs::obs {

namespace {

/// Stored-violation cap: a structurally broken run can violate at every
/// event; the count keeps counting, the storage stops growing.
constexpr std::size_t kMaxStoredViolations = 64;

std::string span_summary(const TraceRecord& rec) {
  std::ostringstream out;
  out << to_string(rec.point) << " job " << rec.job << " run " << rec.run
      << " on " << alloc_name(rec.alloc, rec.origin) << " [" << rec.begin
      << ", " << rec.end << "]";
  return out.str();
}

}  // namespace

std::string to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kPortConflict: return "port-conflict";
    case InvariantKind::kProcessorConflict: return "processor-conflict";
    case InvariantKind::kSelfOverlap: return "self-overlap";
    case InvariantKind::kPrecedence: return "precedence";
    case InvariantKind::kMigration: return "migration";
    case InvariantKind::kBeforeRelease: return "before-release";
    case InvariantKind::kRejectedActivity: return "rejected-activity";
  }
  return "?";
}

InvariantWatchdog::InvariantWatchdog(int provenance_depth)
    : depth_(std::max(provenance_depth, 0)) {}

void InvariantWatchdog::begin_trace(const TraceMeta& meta) {
  meta_ = meta;
  const std::size_t pe = static_cast<std::size_t>(std::max(meta.edge_count, 0));
  const std::size_t pc =
      static_cast<std::size_t>(std::max(meta.cloud_count, 0));
  const std::size_t n = static_cast<std::size_t>(std::max(meta.job_count, 0));
  edge_cpu_.assign(pe, Tail{});
  edge_send_.assign(pe, Tail{});
  edge_recv_.assign(pe, Tail{});
  cloud_cpu_.assign(pc, Tail{});
  cloud_send_.assign(pc, Tail{});
  cloud_recv_.assign(pc, Tail{});
  jobs_.assign(n, JobState{});
  rings_.assign(n, {});
  ring_next_.assign(n, 0);
  job_base_ = 0;
  job_start_ = 0;
  violations_.clear();
  total_violations_ = 0;
  records_seen_ = 0;
  spans_checked_ = 0;
}

void InvariantWatchdog::end_trace(Time makespan) { (void)makespan; }

std::int64_t InvariantWatchdog::job_index(JobId job) {
  if (job < job_base_) return -1;
  const std::size_t idx =
      job_start_ + static_cast<std::size_t>(job - job_base_);
  if (idx >= jobs_.size()) {
    jobs_.resize(idx + 1);
    rings_.resize(idx + 1);
    ring_next_.resize(idx + 1, 0);
  }
  return static_cast<std::int64_t>(idx);
}

std::int64_t InvariantWatchdog::job_lookup(JobId job) const {
  if (job < job_base_) return -1;
  const std::size_t idx =
      job_start_ + static_cast<std::size_t>(job - job_base_);
  return idx < jobs_.size() ? static_cast<std::int64_t>(idx) : -1;
}

void InvariantWatchdog::retire_job(std::int64_t idx) {
  jobs_[idx].gone = true;
  rings_[idx].clear();
  rings_[idx].shrink_to_fit();
  while (job_start_ < jobs_.size() && jobs_[job_start_].gone) {
    ++job_start_;
    ++job_base_;
  }
  if (job_start_ > 1024 && job_start_ * 2 > jobs_.size()) {
    const auto cut = static_cast<std::ptrdiff_t>(job_start_);
    jobs_.erase(jobs_.begin(), jobs_.begin() + cut);
    rings_.erase(rings_.begin(), rings_.begin() + cut);
    ring_next_.erase(ring_next_.begin(), ring_next_.begin() + cut);
    job_start_ = 0;
  }
}

InvariantWatchdog::Tail& InvariantWatchdog::tail(std::vector<Tail>& tails,
                                                 int index) {
  const std::size_t need = static_cast<std::size_t>(index) + 1;
  if (tails.size() < need) tails.resize(need);
  return tails[index];
}

void InvariantWatchdog::remember_provenance(const ProvenanceRecord& rec) {
  if (depth_ == 0 || rec.job < 0) return;
  const std::int64_t idx = job_index(rec.job);
  if (idx < 0) return;  // job already retired past the window
  std::vector<ProvenanceRecord>& ring = rings_[idx];
  if (ring.size() < static_cast<std::size_t>(depth_)) {
    // One allocation per job, not one per doubling on the way to depth_.
    if (ring.empty()) ring.reserve(static_cast<std::size_t>(depth_));
    ring.push_back(rec);
    ring_next_[idx] = static_cast<std::uint32_t>(ring.size()) %
                      static_cast<std::uint32_t>(depth_);
    return;
  }
  ring[ring_next_[idx]] = rec;
  ring_next_[idx] =
      (ring_next_[idx] + 1U) % static_cast<std::uint32_t>(depth_);
}

void InvariantWatchdog::append_ring(JobId job,
                                    std::vector<ProvenanceRecord>& out) const {
  if (job < 0) return;
  const std::int64_t idx = job_lookup(job);
  if (idx < 0) return;  // retired: its provenance ring was compacted away
  const std::vector<ProvenanceRecord>& ring = rings_[idx];
  if (ring.empty()) return;
  // Oldest first: the ring wraps at ring_next_ once full.
  const std::size_t n = ring.size();
  const std::size_t start =
      n < static_cast<std::size_t>(depth_) ? 0 : ring_next_[idx];
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring[(start + i) % n]);
  }
}

void InvariantWatchdog::flag(InvariantKind kind, const TraceRecord& rec,
                             JobId other_job, std::string detail) {
  ++total_violations_;
  if (violations_.size() >= kMaxStoredViolations) return;
  InvariantViolation v;
  v.kind = kind;
  v.offending = rec;
  v.other_job = other_job;
  v.detail = std::move(detail);
  append_ring(rec.job, v.provenance);
  if (other_job >= 0 && other_job != rec.job) {
    append_ring(other_job, v.provenance);
  }
  violations_.push_back(std::move(v));
}

void InvariantWatchdog::check_resource(std::vector<Tail>& tails, int index,
                                       const TraceRecord& rec,
                                       InvariantKind kind,
                                       const char* resource_name) {
  if (index < 0) return;
  Tail& t = tail(tails, index);
  // Spans close in non-decreasing end order, so this span overlaps some
  // earlier span on the resource iff it begins before the farthest end
  // seen (same-job overlaps are kSelfOverlap, reported once, elsewhere).
  if (t.job >= 0 && t.job != rec.job && time_lt(rec.begin, t.end)) {
    std::ostringstream detail;
    detail << span_summary(rec) << " overlaps job " << t.job << " on "
           << resource_name << " " << index << " (busy until " << t.end
           << ")";
    flag(kind, rec, t.job, detail.str());
  }
  if (rec.end > t.end) {
    t.end = rec.end;
    t.job = rec.job;
  }
}

void InvariantWatchdog::check_span(const TraceRecord& rec) {
  ++spans_checked_;
  const std::int64_t idx = job_index(rec.job);
  // A span for a job past the window base, or one whose entry is marked
  // gone, belongs to a job that was rejected, shed or already completed —
  // none of which may record activity.
  if (idx < 0 || jobs_[idx].gone) {
    std::ostringstream detail;
    detail << span_summary(rec) << " but the job was "
           << (idx >= 0 && jobs_[idx].refused
                   ? "rejected or shed by admission control"
                   : "already retired (completed, rejected or shed)")
           << " — it must record no further activity";
    flag(InvariantKind::kRejectedActivity, rec, -1, detail.str());
    return;
  }
  JobState& js = jobs_[idx];

  // Release: nothing of the job may happen before it entered the system.
  if (js.release > -kTimeInfinity && time_lt(rec.begin, js.release)) {
    std::ostringstream detail;
    detail << span_summary(rec) << " begins before release at "
           << js.release;
    flag(InvariantKind::kBeforeRelease, rec, -1, detail.str());
  }

  // Self-overlap: one job never does two things at once, across runs and
  // activity kinds.
  if (time_lt(rec.begin, js.busy_until)) {
    std::ostringstream detail;
    detail << span_summary(rec) << " overlaps the job's own activity ("
           << "busy until " << js.busy_until << ")";
    flag(InvariantKind::kSelfOverlap, rec, rec.job, detail.str());
  }
  js.busy_until = std::max(js.busy_until, rec.end);

  // Precedence and migration, per (job, run). A new run index resets the
  // summary: re-execution legitimately restarts anywhere from zero.
  RunState& rs = js.run;
  if (rs.run != rec.run) {
    rs = RunState{};
    rs.run = rec.run;
    rs.alloc = rec.alloc;
  } else if (rs.alloc != rec.alloc) {
    std::ostringstream detail;
    detail << span_summary(rec) << " but run " << rec.run
           << " already ran on " << alloc_name(rs.alloc, rec.origin)
           << " — progress migrated without a re-execution";
    flag(InvariantKind::kMigration, rec, -1, detail.str());
    rs.alloc = rec.alloc;  // keep checking against the new allocation
  }
  switch (rec.point) {
    case TracePoint::kUplink:
      if (time_gt(rec.end, rs.exec_min_begin)) {
        std::ostringstream detail;
        detail << span_summary(rec) << " ends after the run's execution "
               << "began at " << rs.exec_min_begin;
        flag(InvariantKind::kPrecedence, rec, -1, detail.str());
      }
      rs.up_max_end = std::max(rs.up_max_end, rec.end);
      break;
    case TracePoint::kExec:
      if (time_lt(rec.begin, rs.up_max_end)) {
        std::ostringstream detail;
        detail << span_summary(rec) << " begins before the run's uplink "
               << "finished at " << rs.up_max_end;
        flag(InvariantKind::kPrecedence, rec, -1, detail.str());
      }
      if (time_gt(rec.end, rs.down_min_begin)) {
        std::ostringstream detail;
        detail << span_summary(rec) << " ends after the run's downlink "
               << "began at " << rs.down_min_begin;
        flag(InvariantKind::kPrecedence, rec, -1, detail.str());
      }
      rs.exec_min_begin = std::min(rs.exec_min_begin, rec.begin);
      rs.exec_max_end = std::max(rs.exec_max_end, rec.end);
      break;
    case TracePoint::kDownlink:
      if (time_lt(rec.begin, rs.exec_max_end)) {
        std::ostringstream detail;
        detail << span_summary(rec) << " begins before the run's "
               << "execution finished at " << rs.exec_max_end;
        flag(InvariantKind::kPrecedence, rec, -1, detail.str());
      }
      rs.down_min_begin = std::min(rs.down_min_begin, rec.begin);
      break;
    default:
      break;
  }

  // Exclusive resources: processors and the one-port model.
  switch (rec.point) {
    case TracePoint::kExec:
      if (rec.alloc == kAllocEdge) {
        check_resource(edge_cpu_, rec.origin, rec,
                       InvariantKind::kProcessorConflict, "edge processor");
      } else if (is_cloud_alloc(rec.alloc)) {
        check_resource(cloud_cpu_, rec.alloc, rec,
                       InvariantKind::kProcessorConflict, "cloud processor");
      }
      break;
    case TracePoint::kUplink:
      // Uplink occupies the origin edge's send port and the target cloud's
      // receive port.
      check_resource(edge_send_, rec.origin, rec,
                     InvariantKind::kPortConflict, "send port of edge");
      if (is_cloud_alloc(rec.alloc)) {
        check_resource(cloud_recv_, rec.alloc, rec,
                       InvariantKind::kPortConflict,
                       "receive port of cloud");
      }
      break;
    case TracePoint::kDownlink:
      if (is_cloud_alloc(rec.alloc)) {
        check_resource(cloud_send_, rec.alloc, rec,
                       InvariantKind::kPortConflict, "send port of cloud");
      }
      check_resource(edge_recv_, rec.origin, rec,
                     InvariantKind::kPortConflict, "receive port of edge");
      break;
    default:
      break;
  }
}

void InvariantWatchdog::record(const TraceRecord& rec) {
  ++records_seen_;
  if (rec.kind == TraceKind::kSpan) {
    if (rec.job >= 0) check_span(rec);
    return;
  }
  if (rec.kind != TraceKind::kInstant || rec.job < 0) return;
  if (rec.point == TracePoint::kRelease) {
    const std::int64_t idx = job_index(rec.job);
    if (idx >= 0) jobs_[idx].release = rec.begin;
  }
  const std::optional<ProvenanceRecord> prov = provenance_from_trace(rec);
  if (prov.has_value()) remember_provenance(*prov);
  // Lifecycle exits: completed, rejected and shed jobs retire from the
  // window (after their provenance was remembered, so a violation arriving
  // in the same batch can still link it). This keeps per-job state O(live)
  // on unbounded streams and arms the kRejectedActivity check above.
  if (rec.point == TracePoint::kCompletion ||
      rec.point == TracePoint::kReject || rec.point == TracePoint::kShed) {
    const std::int64_t idx = job_index(rec.job);
    if (idx >= 0) {
      if (rec.point != TracePoint::kCompletion) jobs_[idx].refused = true;
      retire_job(idx);
    }
  }
}

void InvariantWatchdog::report(std::ostream& out) const {
  out << "watchdog: " << total_violations_ << " violation"
      << (total_violations_ == 1 ? "" : "s") << " in " << spans_checked_
      << " spans / " << records_seen_ << " records";
  if (!meta_.policy.empty()) out << " (policy " << meta_.policy << ")";
  out << "\n";
  if (violations_.size() < total_violations_) {
    out << "  (showing the first " << violations_.size() << ")\n";
  }
  for (const InvariantViolation& v : violations_) {
    out << "  [" << to_string(v.kind) << "] " << v.detail << "\n";
    for (const ProvenanceRecord& p : v.provenance) {
      out << "    provenance: job " << p.job << " t=" << p.time << " "
          << to_string(p.kind) << " -> " << alloc_name(p.target, p.origin);
      if (p.reason != ReasonCode::kUnspecified) {
        out << " [" << ecs::to_string(p.reason) << "]";
      }
      out << "\n";
    }
  }
}

}  // namespace ecs::obs
