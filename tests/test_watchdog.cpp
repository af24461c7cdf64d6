// Tests for the online invariant watchdog (obs/watchdog.hpp). Synthetic
// trace streams inject each violation kind in isolation and the watchdog
// must flag it at the offending record, linking the decision provenance of
// the jobs involved; every engine-produced run must come out clean. These
// are the online twins of the offline validator tests (test_validate.cpp):
// the same one-port / precedence / migration invariants, caught mid-run.
// The sample-gate tests pin that attaching a watchdog changes nothing a
// teed sink sees, and that the watchdog itself is spared the counters.
#include "obs/watchdog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/provenance.hpp"
#include "obs/reason.hpp"
#include "obs/trace.hpp"
#include "sched/factory.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

obs::TraceMeta two_job_meta() {
  obs::TraceMeta meta;
  meta.policy = "synthetic";
  meta.edge_count = 2;
  meta.cloud_count = 2;
  meta.job_count = 2;
  return meta;
}

obs::TraceRecord release_at(JobId job, Time t, EdgeId origin = 0) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kInstant;
  rec.point = obs::TracePoint::kRelease;
  rec.job = job;
  rec.origin = origin;
  rec.begin = rec.end = t;
  return rec;
}

/// A provenance directive: the decision that placed `job` on `target`.
obs::TraceRecord directive(JobId job, int run, int source, int target,
                           Time t, EdgeId origin = 0) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kInstant;
  rec.point = obs::TracePoint::kDirective;
  rec.job = job;
  rec.run = run;
  rec.alloc = target;
  rec.cloud = source;
  rec.origin = origin;
  rec.begin = rec.end = t;
  rec.reason = static_cast<int>(ReasonCode::kSrptShortestRemaining);
  return rec;
}

obs::TraceRecord span(obs::TracePoint point, JobId job, int run, int alloc,
                      EdgeId origin, Time begin, Time end) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kSpan;
  rec.point = point;
  rec.job = job;
  rec.run = run;
  rec.alloc = alloc;
  rec.origin = origin;
  rec.begin = begin;
  rec.end = end;
  return rec;
}

/// Feeds a synthetic record stream (in non-decreasing close time, as the
/// engine emits it) and returns the watchdog for inspection.
obs::InvariantWatchdog run_stream(const std::vector<obs::TraceRecord>& recs) {
  obs::InvariantWatchdog watchdog;
  watchdog.begin_trace(two_job_meta());
  for (const obs::TraceRecord& rec : recs) watchdog.record(rec);
  watchdog.end_trace(recs.empty() ? 0.0 : recs.back().end);
  return watchdog;
}

bool has_kind(const obs::InvariantWatchdog& watchdog,
              obs::InvariantKind kind) {
  for (const obs::InvariantViolation& v : watchdog.violations()) {
    if (v.kind == kind) return true;
  }
  return false;
}

TEST(Watchdog, CleanStreamPasses) {
  // J0 on edge 0; J1 via cloud 0: a conforming pipeline.
  const auto wd = run_stream({
      release_at(0, 0.0), release_at(1, 0.0),
      directive(0, 0, kAllocUnassigned, kAllocEdge, 0.0),
      directive(1, 0, kAllocUnassigned, 0, 0.0),
      span(obs::TracePoint::kUplink, 1, 0, 0, 0, 0.0, 1.0),
      span(obs::TracePoint::kExec, 1, 0, 0, 0, 1.0, 3.0),
      span(obs::TracePoint::kExec, 0, 0, kAllocEdge, 0, 0.0, 4.0),
      span(obs::TracePoint::kDownlink, 1, 0, 0, 0, 3.0, 4.0),
  });
  EXPECT_TRUE(wd.ok());
  EXPECT_EQ(wd.violation_count(), 0u);
  EXPECT_EQ(wd.spans_checked(), 4u);
}

TEST(Watchdog, FlagsOnePortSendConflictAtOffendingEvent) {
  // Two jobs uploading from edge 0 at overlapping times (to different
  // clouds, so only the edge's send port is oversubscribed).
  const auto wd = run_stream({
      release_at(0, 0.0), release_at(1, 0.0),
      directive(0, 0, kAllocUnassigned, 0, 0.0),
      directive(1, 0, kAllocUnassigned, 1, 0.0),
      span(obs::TracePoint::kUplink, 0, 0, 0, 0, 0.0, 2.0),
      span(obs::TracePoint::kUplink, 1, 0, 1, 0, 1.0, 3.0),  // offender
  });
  EXPECT_FALSE(wd.ok());
  ASSERT_TRUE(has_kind(wd, obs::InvariantKind::kPortConflict));
  const obs::InvariantViolation& v = wd.violations().front();
  EXPECT_EQ(v.kind, obs::InvariantKind::kPortConflict);
  // Flagged AT the offending record, naming the other holder of the port.
  EXPECT_EQ(v.offending.job, 1);
  EXPECT_DOUBLE_EQ(v.offending.begin, 1.0);
  EXPECT_EQ(v.other_job, 0);
  // ... and carrying the decisions that put both jobs there.
  ASSERT_GE(v.provenance.size(), 1u);
  bool offender_decision = false;
  for (const obs::ProvenanceRecord& p : v.provenance) {
    offender_decision |= p.job == 1 && p.kind == obs::ProvenanceKind::kAssign;
  }
  EXPECT_TRUE(offender_decision);
}

TEST(Watchdog, FlagsCloudReceivePortConflict) {
  // Different edges, same cloud, overlapping uplinks: the cloud's receive
  // port is the oversubscribed resource.
  const auto wd = run_stream({
      release_at(0, 0.0, 0), release_at(1, 0.0, 1),
      span(obs::TracePoint::kUplink, 0, 0, 0, 0, 0.0, 2.0),
      span(obs::TracePoint::kUplink, 1, 0, 0, 1, 1.0, 3.0),
  });
  EXPECT_TRUE(has_kind(wd, obs::InvariantKind::kPortConflict));
}

TEST(Watchdog, FullDuplexOverlapIsAllowed) {
  // An uplink and a downlink on the same edge/cloud pair may overlap: the
  // send and receive ports are distinct.
  const auto wd = run_stream({
      release_at(0, 0.0), release_at(1, 0.0),
      span(obs::TracePoint::kUplink, 0, 0, 0, 0, 0.0, 1.0),
      span(obs::TracePoint::kExec, 0, 0, 0, 0, 1.0, 3.0),
      span(obs::TracePoint::kUplink, 1, 0, 0, 0, 3.0, 4.0),
      span(obs::TracePoint::kDownlink, 0, 0, 0, 0, 3.0, 4.0),
  });
  EXPECT_TRUE(wd.ok());
}

TEST(Watchdog, FlagsProcessorConflict) {
  const auto wd = run_stream({
      release_at(0, 0.0), release_at(1, 0.0),
      span(obs::TracePoint::kExec, 0, 0, kAllocEdge, 0, 0.0, 4.0),
      span(obs::TracePoint::kExec, 1, 0, kAllocEdge, 0, 1.0, 5.0),
  });
  ASSERT_TRUE(has_kind(wd, obs::InvariantKind::kProcessorConflict));
  EXPECT_EQ(wd.violations().front().other_job, 0);
}

TEST(Watchdog, FlagsBrokenPrecedenceAtOffendingEvent) {
  // Execution starts at 1.0 while the run's uplink runs until 2.0.
  const auto wd = run_stream({
      release_at(0, 0.0),
      directive(0, 0, kAllocUnassigned, 0, 0.0),
      span(obs::TracePoint::kUplink, 0, 0, 0, 0, 0.0, 2.0),
      span(obs::TracePoint::kExec, 0, 0, 0, 0, 1.0, 3.0),  // offender
  });
  EXPECT_FALSE(wd.ok());
  ASSERT_TRUE(has_kind(wd, obs::InvariantKind::kPrecedence));
  const obs::InvariantViolation& v = wd.violations().front();
  EXPECT_EQ(v.offending.point, obs::TracePoint::kExec);
  EXPECT_DOUBLE_EQ(v.offending.begin, 1.0);
  // The linked provenance explains which decision placed the run.
  ASSERT_GE(v.provenance.size(), 1u);
  EXPECT_EQ(v.provenance.front().job, 0);
}

TEST(Watchdog, FlagsDownlinkBeforeExecEnd) {
  const auto wd = run_stream({
      release_at(0, 0.0),
      span(obs::TracePoint::kUplink, 0, 0, 0, 0, 0.0, 1.0),
      span(obs::TracePoint::kDownlink, 0, 0, 0, 0, 1.0, 2.0),
      span(obs::TracePoint::kExec, 0, 0, 0, 0, 1.0, 3.0),
  });
  EXPECT_TRUE(has_kind(wd, obs::InvariantKind::kPrecedence));
}

TEST(Watchdog, FlagsMigrationWithinARun) {
  // Run 0 observed on cloud 0 and then cloud 1: progress migrated, which
  // the model forbids (a move requires a new run from zero).
  const auto wd = run_stream({
      release_at(0, 0.0),
      span(obs::TracePoint::kExec, 0, 0, 0, 0, 0.0, 1.0),
      span(obs::TracePoint::kExec, 0, 0, 1, 0, 2.0, 3.0),
  });
  ASSERT_TRUE(has_kind(wd, obs::InvariantKind::kMigration));
  // The same shape with a bumped run index is the legal re-execution.
  const auto wd2 = run_stream({
      release_at(0, 0.0),
      span(obs::TracePoint::kExec, 0, 0, 0, 0, 0.0, 1.0),
      span(obs::TracePoint::kExec, 0, 1, 1, 0, 2.0, 3.0),
  });
  EXPECT_TRUE(wd2.ok());
}

TEST(Watchdog, FlagsSelfOverlapAndBeforeRelease) {
  const auto overlap = run_stream({
      release_at(0, 0.0),
      span(obs::TracePoint::kExec, 0, 0, kAllocEdge, 0, 0.0, 2.0),
      span(obs::TracePoint::kExec, 0, 1, kAllocEdge, 0, 1.0, 3.0),
  });
  EXPECT_TRUE(has_kind(overlap, obs::InvariantKind::kSelfOverlap));

  const auto early = run_stream({
      release_at(0, 5.0),
      span(obs::TracePoint::kExec, 0, 0, kAllocEdge, 0, 4.5, 6.0),
  });
  EXPECT_TRUE(has_kind(early, obs::InvariantKind::kBeforeRelease));
}

TEST(Watchdog, ReportNamesViolationAndProvenance) {
  const auto wd = run_stream({
      release_at(0, 0.0), release_at(1, 0.0),
      directive(0, 0, kAllocUnassigned, 0, 0.0),
      directive(1, 0, kAllocUnassigned, 1, 0.0),
      span(obs::TracePoint::kUplink, 0, 0, 0, 0, 0.0, 2.0),
      span(obs::TracePoint::kUplink, 1, 0, 1, 0, 1.0, 3.0),
  });
  std::ostringstream out;
  wd.report(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("port-conflict"), std::string::npos);
  EXPECT_NE(text.find("provenance"), std::string::npos);
}

TEST(Watchdog, EngineRunsComeOutClean) {
  // Every engine-produced stream must satisfy the invariants, including
  // under unannounced faults and message losses.
  RandomInstanceConfig cfg;
  cfg.n = 120;
  cfg.ccr = 1.0;
  cfg.load = 0.8;
  Rng rng(11);
  const Instance instance = make_random_instance(cfg, rng);
  FaultConfig fault_cfg;
  fault_cfg.crash_rate = 0.01;
  fault_cfg.loss_rate = 0.01;
  fault_cfg.mean_repair = 20.0;
  Rng fault_rng(13);
  const FaultPlan plan =
      make_fault_plan(instance.platform.cloud_count(), fault_cfg, fault_rng);
  for (const char* name :
       {"greedy", "srpt", "ssf-edf", "failover-srpt", "edge-only"}) {
    obs::InvariantWatchdog watchdog;
    EngineConfig config;
    config.watchdog = &watchdog;  // no user trace sink: the only sink
    config.faults = plan;
    const auto policy = make_policy(name);
    (void)simulate(instance, *policy, config);
    EXPECT_TRUE(watchdog.ok()) << name << ": " << [&] {
      std::ostringstream out;
      watchdog.report(out);
      return out.str();
    }();
    EXPECT_GT(watchdog.spans_checked(), 0u) << name;
  }
}

// --- the sample gate: sinks that drop counters never cause them ---

/// The worlds the sample-gate tests run: a materialized one under crashes
/// and message losses, and a streaming one under admission control.
enum class GateWorld { kFaulted, kStreaming };

/// Runs one gate world with `config`'s observers attached.
SimResult run_gate_world(GateWorld world, EngineConfig config) {
  RandomInstanceConfig cfg;
  cfg.n = 120;
  cfg.ccr = 1.0;
  cfg.load = world == GateWorld::kFaulted ? 0.8 : 8.0;
  Rng rng(world == GateWorld::kFaulted ? 11 : 1234);
  const Instance instance = make_random_instance(cfg, rng);
  const auto policy = make_policy("srpt");
  if (world == GateWorld::kFaulted) {
    FaultConfig fault_cfg;
    fault_cfg.crash_rate = 0.01;
    fault_cfg.loss_rate = 0.01;
    fault_cfg.mean_repair = 20.0;
    Rng fault_rng(13);
    config.faults = make_fault_plan(instance.platform.cloud_count(),
                                    fault_cfg, fault_rng);
    return simulate(instance, *policy, config);
  }
  config.admission.max_live = 12;
  config.admission.rule = AdmissionRule::kRejectHopeless;
  Instance base;
  base.platform = instance.platform;
  InstanceArrivalStream arrivals(instance);
  return simulate_stream(base, arrivals, *policy, config);
}

constexpr GateWorld kGateWorlds[] = {GateWorld::kFaulted,
                                     GateWorld::kStreaming};

TEST(WatchdogSampleGate, TeedSinkSeesTheSameRecordsWithOrWithoutWatchdog) {
  for (const GateWorld world : kGateWorlds) {
    // A watchdog implies provenance, so the plain run asks for it too.
    obs::MemoryTraceSink plain;
    EngineConfig plain_cfg;
    plain_cfg.trace = &plain;
    plain_cfg.provenance = true;
    const SimResult a = run_gate_world(world, plain_cfg);

    obs::MemoryTraceSink teed;
    obs::InvariantWatchdog watchdog;
    EngineConfig teed_cfg;
    teed_cfg.trace = &teed;
    teed_cfg.watchdog = &watchdog;
    const SimResult b = run_gate_world(world, teed_cfg);

    const int w = static_cast<int>(world);
    EXPECT_TRUE(watchdog.ok()) << w;
    EXPECT_EQ(a.stats.events, b.stats.events) << w;
    EXPECT_EQ(plain.meta(), teed.meta()) << w;
    EXPECT_EQ(plain.makespan(), teed.makespan()) << w;
    ASSERT_EQ(plain.records().size(), teed.records().size()) << w;
    EXPECT_TRUE(plain.records() == teed.records()) << w;
    // Both worlds exercise the sampled records the watchdog skips.
    EXPECT_NE(std::count_if(plain.records().begin(), plain.records().end(),
                            [](const obs::TraceRecord& r) {
                              return r.kind == obs::TraceKind::kCounter;
                            }),
              0)
        << w;
  }
}

TEST(WatchdogSampleGate, WatchdogAloneReceivesNoSamples) {
  for (const GateWorld world : kGateWorlds) {
    obs::MemoryTraceSink memory;
    EngineConfig memory_cfg;
    memory_cfg.trace = &memory;
    memory_cfg.provenance = true;
    (void)run_gate_world(world, memory_cfg);

    obs::InvariantWatchdog watchdog;
    EngineConfig watchdog_cfg;
    watchdog_cfg.watchdog = &watchdog;
    (void)run_gate_world(world, watchdog_cfg);

    // The watchdog sees every record but the counters and the per-round
    // kDecision instants. Cloud-level fault and recovery instants are the
    // only other job-less ones, so a fault-free world hands it exactly the
    // records that carry a job or are not instants at all.
    std::uint64_t unsampled = 0, with_job = 0;
    for (const obs::TraceRecord& r : memory.records()) {
      const bool instant = r.kind == obs::TraceKind::kInstant;
      if (r.kind != obs::TraceKind::kCounter &&
          !(instant && r.point == obs::TracePoint::kDecision)) {
        ++unsampled;
      }
      if (r.kind != obs::TraceKind::kCounter && !(instant && r.job < 0)) {
        ++with_job;
      }
    }
    const int w = static_cast<int>(world);
    EXPECT_TRUE(watchdog.ok()) << w;
    EXPECT_EQ(watchdog.records_seen(), unsampled) << w;
    if (world == GateWorld::kStreaming) {
      EXPECT_EQ(watchdog.records_seen(), with_job);
    } else {
      EXPECT_GT(watchdog.records_seen(), with_job);  // crash instants
    }
  }
}

TEST(WatchdogSampleGate, ProvenanceChainsIgnoreATeedSampleReader) {
  for (const GateWorld world : kGateWorlds) {
    obs::ProvenanceLog alone;
    EngineConfig alone_cfg;
    alone_cfg.trace = &alone;
    alone_cfg.provenance = true;
    (void)run_gate_world(world, alone_cfg);

    obs::ProvenanceLog beside;
    obs::MemoryTraceSink memory;
    obs::TeeTraceSink tee;
    tee.add(&beside);
    tee.add(&memory);
    EngineConfig tee_cfg;
    tee_cfg.trace = &tee;
    tee_cfg.provenance = true;
    (void)run_gate_world(world, tee_cfg);

    const int w = static_cast<int>(world);
    ASSERT_EQ(alone.job_count(), beside.job_count()) << w;
    EXPECT_GT(alone.job_count(), 0) << w;
    EXPECT_EQ(alone.makespan(), beside.makespan()) << w;
    for (JobId j = 0; j < alone.job_count(); ++j) {
      EXPECT_TRUE(alone.chain(j) == beside.chain(j)) << w << " job " << j;
    }
  }
}

}  // namespace
}  // namespace ecs
