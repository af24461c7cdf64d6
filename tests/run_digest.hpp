// run_digest.hpp - FNV-1a digests of a generated world and of one run, and
// the table check the equivalence suites pin them with.
//
// A run digest covers everything a run produces that is reproducible:
// completions, SimStats (all but the wall-time policy_seconds), the fault
// and admission logs, the recorded schedule (final and abandoned runs) and
// the trace record stream. A world digest covers the generated input:
// platform, jobs, outage calendar and fault plan. Tables store both, so a
// host whose libm makes the generators draw a different world reports a
// generator mismatch instead of schedule drift.
//
// The recorded values hold for the portable build (no -march flags, no
// floating-point contraction). A -DECS_NATIVE=ON build may contract
// multiply-adds into FMA and legitimately produce different bits.
//
// Updating: when a behaviour change is intended, the failing check prints
// the replacement table row; paste it over the old one and let the commit
// document the change.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/schedule.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"

namespace ecs {

class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }

  /// One scalar by its exact bytes (doubles by their bit pattern).
  template <class T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void add(T v) {
    add_bytes(&v, sizeof v);
  }

  void add(const IntervalSet& set) {
    add(set.size());
    for (const Interval& iv : set.intervals()) {
      add(iv.begin);
      add(iv.end);
    }
  }

  void add(const RunRecord& run) {
    add(run.alloc);
    add(run.exec);
    add(run.uplink);
    add(run.downlink);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Platform, jobs, outage calendar and fault plan.
inline std::uint64_t world_digest(const Instance& instance,
                                  const FaultPlan& faults) {
  Fnv1a d;
  const Platform& platform = instance.platform;
  d.add(platform.edge_speeds().size());
  for (const double s : platform.edge_speeds()) d.add(s);
  d.add(platform.cloud_speeds().size());
  for (const double s : platform.cloud_speeds()) d.add(s);
  d.add(instance.jobs.size());
  for (const Job& job : instance.jobs) {
    d.add(job.id);
    d.add(job.origin);
    d.add(job.work);
    d.add(job.release);
    d.add(job.up);
    d.add(job.down);
  }
  d.add(instance.cloud_outages.size());
  for (const IntervalSet& outages : instance.cloud_outages) d.add(outages);
  d.add(faults.faults.size());
  for (const FaultSpec& f : faults.faults) {
    d.add(f.kind);
    d.add(f.cloud);
    d.add(f.begin);
    d.add(f.end);
  }
  return d.value();
}

/// Completions, stats, fault and admission logs, schedule and trace.
inline std::uint64_t run_digest(const SimResult& result,
                                const std::vector<obs::TraceRecord>& trace) {
  Fnv1a d;
  d.add(result.completions.size());
  for (const Time c : result.completions) d.add(c);

  const SimStats& s = result.stats;
  for (const std::uint64_t v :
       {s.events, s.decisions, s.reassignments, s.fault_aborts,
        s.message_losses, s.preemptions, s.uplink_retransmits,
        s.downlink_retransmits, s.max_queue_depth, s.peak_live,
        s.peak_tracked, s.admitted, s.completed, s.rejections, s.sheds}) {
    d.add(v);
  }
  d.add(s.max_stretch);

  d.add(result.fault_log.size());
  for (const Event& e : result.fault_log) {
    d.add(e.kind);
    d.add(e.job);
    d.add(e.time);
    d.add(e.cloud);
  }
  d.add(result.admission_log.size());
  for (const AdmissionRecord& a : result.admission_log) {
    d.add(a.job);
    d.add(a.time);
    d.add(a.reason);
    d.add(a.shed);
  }

  d.add(result.schedule.jobs().size());
  for (const JobSchedule& job : result.schedule.jobs()) {
    d.add(job.final_run);
    d.add(job.abandoned.size());
    for (const RunRecord& run : job.abandoned) d.add(run);
  }

  d.add(trace.size());
  for (const obs::TraceRecord& r : trace) {
    d.add(r.kind);
    d.add(r.point);
    d.add(r.job);
    d.add(r.run);
    d.add(r.alloc);
    d.add(r.origin);
    d.add(r.cloud);
    d.add(r.begin);
    d.add(r.end);
    d.add(r.value);
    d.add(r.reason);
  }
  return d.value();
}

struct DigestRow {
  const char* cell;
  std::uint64_t world;
  std::uint64_t run;
};

/// A row pinning one world under both front doors: the run digest of
/// simulate() and that of simulate_stream() over InstanceArrivalStream.
struct StreamDigestRow {
  const char* cell;
  std::uint64_t world;
  std::uint64_t run;
  std::uint64_t stream_run;
};

namespace detail {

inline void expect_recorded_runs(const char* cell, bool found,
                                 std::uint64_t recorded_world,
                                 std::span<const std::uint64_t> recorded,
                                 std::uint64_t world,
                                 std::span<const std::uint64_t> runs) {
  std::string row = "{\"" + std::string(cell) + "\"";
  char hex[24];
  std::snprintf(hex, sizeof hex, ", 0x%016llx",
                static_cast<unsigned long long>(world));
  row += hex;
  for (const std::uint64_t run : runs) {
    std::snprintf(hex, sizeof hex, ", 0x%016llx",
                  static_cast<unsigned long long>(run));
    row += hex;
  }
  row += "},";
  if (!found) {
    ADD_FAILURE() << "no recorded digest for " << cell << "; add the row:\n    "
                  << row;
    return;
  }
  if (recorded_world != world) {
    ADD_FAILURE() << "generator mismatch in " << cell
                  << ": the generated world differs from the recorded one "
                     "(a libm or generator change, not schedule drift); "
                     "the run digest was not compared. Current row:\n    "
                  << row;
    return;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(recorded[i], runs[i])
        << "run digest drift in " << cell << " (column " << i + 1
        << "). If the change is intended, replace the row with:\n    " << row;
  }
}

}  // namespace detail

/// Checks one cell against its table row. On a missing row or a mismatch
/// the failure message carries the replacement row.
inline void expect_recorded_digest(std::span<const DigestRow> table,
                                   const std::string& cell,
                                   std::uint64_t world, std::uint64_t run) {
  const std::uint64_t runs[] = {run};
  for (const DigestRow& r : table) {
    if (cell != r.cell) continue;
    const std::uint64_t recorded[] = {r.run};
    detail::expect_recorded_runs(cell.c_str(), true, r.world, recorded, world,
                                 runs);
    return;
  }
  detail::expect_recorded_runs(cell.c_str(), false, 0, {}, world, runs);
}

/// The same check for a row of both front doors.
inline void expect_recorded_digest(std::span<const StreamDigestRow> table,
                                   const std::string& cell,
                                   std::uint64_t world, std::uint64_t run,
                                   std::uint64_t stream_run) {
  const std::uint64_t runs[] = {run, stream_run};
  for (const StreamDigestRow& r : table) {
    if (cell != r.cell) continue;
    const std::uint64_t recorded[] = {r.run, r.stream_run};
    detail::expect_recorded_runs(cell.c_str(), true, r.world, recorded, world,
                                 runs);
    return;
  }
  detail::expect_recorded_runs(cell.c_str(), false, 0, {}, world, runs);
}

}  // namespace ecs
