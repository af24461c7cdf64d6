// Tests for decision provenance (obs/provenance.hpp): the trace-record
// mapping, chain assembly with directive/legacy dedup, and the acceptance
// property that a faulted run under every policy yields a complete causal
// chain (release -> placements -> completion) for every job, with the
// final stretch recoverable from the chain alone.
#include "obs/provenance.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "obs/reason.hpp"
#include "obs/trace.hpp"
#include "run_digest.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

obs::TraceRecord instant(obs::TracePoint point, JobId job, Time t) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kInstant;
  rec.point = point;
  rec.job = job;
  rec.begin = rec.end = t;
  return rec;
}

TEST(ProvenanceFromTrace, MapsLifecycleInstants) {
  obs::TraceRecord rel = instant(obs::TracePoint::kRelease, 3, 1.5);
  rel.origin = 2;
  auto p = obs::provenance_from_trace(rel);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, obs::ProvenanceKind::kRelease);
  EXPECT_EQ(p->job, 3);
  EXPECT_EQ(p->origin, 2);

  obs::TraceRecord done = instant(obs::TracePoint::kCompletion, 3, 9.0);
  done.value = 2.25;  // realized stretch rides the completion instant
  p = obs::provenance_from_trace(done);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, obs::ProvenanceKind::kComplete);
  EXPECT_DOUBLE_EQ(p->value, 2.25);

  // Spans, counters and job-less instants carry no per-job lifecycle info.
  obs::TraceRecord span;
  span.kind = obs::TraceKind::kSpan;
  span.point = obs::TracePoint::kExec;
  span.job = 3;
  EXPECT_FALSE(obs::provenance_from_trace(span).has_value());
  obs::TraceRecord fault = instant(obs::TracePoint::kFault, -1, 4.0);
  EXPECT_FALSE(obs::provenance_from_trace(fault).has_value());
}

TEST(ProvenanceFromTrace, DirectiveKindsAndReasons) {
  obs::TraceRecord dir = instant(obs::TracePoint::kDirective, 0, 2.0);
  dir.cloud = kAllocUnassigned;  // source
  dir.alloc = 1;                 // target
  dir.reason = static_cast<int>(ReasonCode::kProjectedBestCompletion);
  auto p = obs::provenance_from_trace(dir);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, obs::ProvenanceKind::kAssign);
  EXPECT_EQ(p->source, kAllocUnassigned);
  EXPECT_EQ(p->target, 1);
  EXPECT_EQ(p->reason, ReasonCode::kProjectedBestCompletion);

  dir.cloud = 1;
  dir.alloc = kAllocEdge;
  p = obs::provenance_from_trace(dir);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, obs::ProvenanceKind::kReassign);

  dir.cloud = kAllocEdge;
  p = obs::provenance_from_trace(dir);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, obs::ProvenanceKind::kKeep);
}

TEST(ProvenanceLog, DedupsDirectiveAgainstLegacyReassignment) {
  // The engine emits the provenance directive first, then the legacy
  // kReassignment instant for the same move; the chain keeps one entry —
  // the directive's, which carries the reason.
  obs::ProvenanceLog log;
  obs::TraceMeta meta;
  meta.job_count = 1;
  meta.edge_count = 1;
  meta.cloud_count = 2;
  log.begin_trace(meta);
  log.record(instant(obs::TracePoint::kRelease, 0, 0.0));
  obs::TraceRecord dir = instant(obs::TracePoint::kDirective, 0, 1.0);
  dir.cloud = kAllocUnassigned;
  dir.alloc = 0;
  dir.reason = static_cast<int>(ReasonCode::kSrptShortestRemaining);
  log.record(dir);
  obs::TraceRecord legacy = instant(obs::TracePoint::kReassignment, 0, 1.0);
  legacy.alloc = 0;
  legacy.value = static_cast<double>(kAllocUnassigned);  // previous alloc
  log.record(legacy);
  log.end_trace(2.0);

  const auto& chain = log.chain(0);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].kind, obs::ProvenanceKind::kRelease);
  EXPECT_EQ(chain[1].kind, obs::ProvenanceKind::kAssign);
  EXPECT_EQ(chain[1].reason, ReasonCode::kSrptShortestRemaining);
}

TEST(ProvenanceLog, AllocNames) {
  EXPECT_EQ(obs::alloc_name(kAllocUnassigned, 0), "unassigned");
  EXPECT_EQ(obs::alloc_name(kAllocEdge, 3), "edge3");
  EXPECT_EQ(obs::alloc_name(2, 0), "cloud2");
}

/// Faulted mid-size instance shared by the policy sweep below.
Instance faulted_instance(FaultPlan& plan_out) {
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.ccr = 1.0;
  cfg.load = 0.8;
  Rng rng(21);
  Instance instance = make_random_instance(cfg, rng);
  FaultConfig fault_cfg;
  fault_cfg.crash_rate = 0.01;
  fault_cfg.loss_rate = 0.01;
  fault_cfg.mean_repair = 25.0;
  Rng fault_rng(22);
  plan_out =
      make_fault_plan(instance.platform.cloud_count(), fault_cfg, fault_rng);
  return instance;
}

TEST(ProvenanceLog, CompleteChainForEveryJobUnderEveryPolicy) {
  // The acceptance property: in a faulted run of each of the seven
  // policies, every job's chain tells the full story — a release, at least
  // one explicit reasoned placement, and the completion — and the chain's
  // final stretch matches the metrics computed from completions.
  FaultPlan plan;
  const Instance instance = faulted_instance(plan);
  const std::vector<std::string> policies = {
      "fcfs",          "greedy",   "srpt",         "srpt-noreexec",
      "ssf-edf",       "edge-only", "failover-srpt"};
  for (const std::string& name : policies) {
    obs::ProvenanceLog log;
    EngineConfig config;
    config.trace = &log;
    config.provenance = true;
    config.faults = plan;
    const auto policy = make_policy(name);
    const SimResult result = simulate(instance, *policy, config);
    const ScheduleMetrics metrics =
        metrics_from_completions(instance, result.completions);

    for (int j = 0; j < instance.job_count(); ++j) {
      EXPECT_TRUE(log.complete_chain(j)) << name << " job " << j;
      const auto stretch = log.final_stretch(j);
      ASSERT_TRUE(stretch.has_value()) << name << " job " << j;
      EXPECT_NEAR(*stretch, metrics.per_job[j].stretch, 1e-9)
          << name << " job " << j;
      // Every placement decision in the chain names a reason.
      for (const obs::ProvenanceRecord& rec : log.chain(j)) {
        if (rec.kind == obs::ProvenanceKind::kAssign ||
            rec.kind == obs::ProvenanceKind::kReassign ||
            rec.kind == obs::ProvenanceKind::kKeep) {
          EXPECT_NE(rec.reason, ReasonCode::kUnspecified)
              << name << " job " << j;
        }
      }
    }
    // The worst job agrees with the metrics' max stretch.
    const JobId worst = log.worst_job();
    ASSERT_GE(worst, 0) << name;
    EXPECT_NEAR(*log.final_stretch(worst), metrics.max_stretch, 1e-9)
        << name;
    // explain() renders a non-trivial story for the worst job.
    std::ostringstream out;
    log.explain(worst, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("release"), std::string::npos) << name;
    EXPECT_NE(text.find("complete"), std::string::npos) << name;
  }
}

TEST(ProvenanceEngine, ProvenanceRunIsBitIdenticalToPlain) {
  // Emitting provenance must not perturb the simulation arithmetic.
  FaultPlan plan;
  const Instance instance = faulted_instance(plan);
  EngineConfig plain_config;
  plain_config.faults = plan;
  const auto plain_policy = make_policy("failover-ssf-edf");
  const SimResult plain = simulate(instance, *plain_policy, plain_config);

  obs::MemoryTraceSink sink;
  EngineConfig config;
  config.trace = &sink;
  config.provenance = true;
  config.faults = plan;
  const auto policy = make_policy("failover-ssf-edf");
  const SimResult traced = simulate(instance, *policy, config);

  expect_same_run(Variant{traced, {}}, Variant{plain, {}}, "provenance run");

  // The traced stream actually contains reasoned directives.
  bool directive_seen = false;
  for (const obs::TraceRecord& rec : sink.records()) {
    directive_seen |= rec.point == obs::TracePoint::kDirective;
  }
  EXPECT_TRUE(directive_seen);
}

}  // namespace
}  // namespace ecs
