// engine.cpp - EngineCore: the event loop behind simulate(),
// simulate_stream() and the batch driver. See engine_core.hpp for the
// reuse contract and sim/soa.hpp for the SoA state layout.
#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/validate.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine_core.hpp"

namespace ecs {
namespace detail {
namespace {

[[nodiscard]] obs::TracePoint span_point(Activity activity) {
  switch (activity) {
    case Activity::kUplink:
      return obs::TracePoint::kUplink;
    case Activity::kDownlink:
      return obs::TracePoint::kDownlink;
    case Activity::kCompute:
    case Activity::kNone:
      break;
  }
  return obs::TracePoint::kExec;
}

}  // namespace

void EngineCore::prepare(const Instance& instance, ArrivalStream* stream,
                         Policy& policy, const EngineConfig& config) {
  instance_ = &instance;
  platform_ = &instance.platform;
  policy_ = &policy;
  if (stream == nullptr) {
    replay_.bind(instance);
    stream = &replay_;
  }
  stream_ = stream;
  prepared_ = false;
  config_ = config;
  trace_ = config.trace;
  metrics_ = config.metrics;
  // A watchdog alone is the trace sink; beside a user sink, an internal tee
  // feeds both.
  tee_ = obs::TeeTraceSink{};
  if (config.watchdog != nullptr) {
    if (config.trace == nullptr) {
      trace_ = config.watchdog;
    } else {
      tee_.add(config.trace);
      tee_.add(config.watchdog);
      trace_ = &tee_;
    }
  }
  trace_samples_ = trace_ != nullptr && trace_->wants_samples();
  provenance_on_ =
      (config.provenance || config.watchdog != nullptr) && trace_ != nullptr;
  profiler_ = config.profiler;
  heartbeat_ = config.heartbeat;
  if (profiler_ != nullptr) profiler_->begin_run(policy.name());
  require_valid_instance(*instance_);
  config_.faults.normalize();
  require_valid_fault_plan(config_.faults, *platform_);
  admission_on_ = config_.admission.enabled();
  record_schedule_ = config_.record_schedule;
  elide_ = policy.elision();
  // Faults and recoveries rewrite allocations behind the policy's back, so
  // no contract may claim invariance across them: force them as triggers.
  elide_.triggers |= ElisionContract::bit(EventKind::kFault) |
                     ElisionContract::bit(EventKind::kRecovery);
  busy_.resize(*platform_);
  init();
  prepared_ = true;
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kPrepare);
}

void EngineCore::init() {
  // Reset every piece of run state; a reused core starts exactly like a
  // fresh one, but with its buffer capacity intact. Per-slot state grows
  // on arrival (acquire_slot).
  pool_.reset(0);
  recorders_.clear();
  started_.clear();
  stretch_.clear();
  queue_wait_.clear();
  live_.clear();
  seen_round_.clear();
  spans_.clear();
  run_index_.clear();
  last_dir_target_.clear();
  last_dir_reason_.clear();
  round_ = 0;
  events_.clear();
  fault_log_.clear();
  admission_log_.clear();
  abandoned_runs_.clear();
  active_ids_.clear();
  order_.clear();
  directives_.clear();
  directive_slots_.clear();
  boundaries_.clear();
  wakes_.clear();
  free_slots_.clear();
  retire_queue_.clear();
  completion_log_.clear();
  final_runs_.clear();
  id_map_.clear();
  peak_tracked_ = 0;
  pending_.reset();
  last_arrival_ = -kTimeInfinity;
  next_id_ = 0;
  remaining_jobs_ = 0;
  stats_ = SimStats{};
  events_since_completion_ = 0;
  granted_ = 0;
  decided_once_ = false;
  membership_changed_ = true;
  elided_rounds_ = 0;

  if (trace_ != nullptr) {
    obs::TraceMeta meta;
    meta.policy = policy_->name();
    meta.edge_count = platform_->edge_count();
    meta.cloud_count = platform_->cloud_count();
    const std::int64_t total = stream_->remaining();
    meta.job_count = total >= 0 && total <= std::numeric_limits<int>::max()
                         ? static_cast<int>(total)
                         : -1;
    trace_->begin_trace(meta);
  }
  // Outage boundaries (cloud availability windows): every begin and end
  // is a wake-up point where the engine re-arbitrates, so an in-flight
  // activity on a cloud that becomes unavailable is preempted exactly at
  // the boundary and can resume at the next one.
  for (const IntervalSet& outages : instance_->cloud_outages) {
    for (const Interval& iv : outages.intervals()) {
      boundaries_.push_back(iv.begin);
      boundaries_.push_back(iv.end);
    }
  }
  std::sort(boundaries_.begin(), boundaries_.end());
  next_boundary_ = 0;

  // Fault timeline: a wake-up per crash start, crash repair, and loss
  // instant, so every fault lands exactly on an engine event. Recoveries
  // sort before same-instant faults (a cloud repaired at t can crash
  // again at t, never the other way around).
  cloud_down_.assign(platform_->cloud_count(), 0);
  for (std::size_t f = 0; f < config_.faults.faults.size(); ++f) {
    const FaultSpec& spec = config_.faults.faults[f];
    wakes_.push_back(FaultWake{spec.begin, f, false});
    if (spec.kind == FaultKind::kCrash) {
      wakes_.push_back(FaultWake{spec.end, f, true});
    }
  }
  std::sort(wakes_.begin(), wakes_.end(),
            [](const FaultWake& a, const FaultWake& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.recovery != b.recovery) return a.recovery;
              return a.spec < b.spec;
            });
  next_wake_ = 0;

  advance_stream();
  // Jump to the first arrival; faults scheduled earlier fire now (no job
  // existed to be hit, but the down/up state and the monitoring events
  // must be correct from the very first decision).
  now_ = pending_ ? pending_->release : 0.0;
  fire_faults();
  fire_releases();
  stats_.events += events_.size();
  events_since_completion_ += events_.size();
}

/// Pulls the next arrival into pending_, enforcing the stream contract.
void EngineCore::advance_stream() {
  pending_ = stream_->next();
  if (!pending_) return;
  const Job& job = *pending_;
  if (job.id < 0 || id_map_.find(job.id) >= 0) {
    throw std::runtime_error(
        "arrival stream " + stream_->name() +
        " emitted a duplicate or negative job id " + std::to_string(job.id));
  }
  if (!(job.release >= last_arrival_)) {
    std::ostringstream os;
    os << "arrival stream " << stream_->name()
       << " emitted decreasing release dates (" << job.release << " after "
       << last_arrival_ << ", job " << job.id << ")";
    throw std::runtime_error(os.str());
  }
  const std::string problem = validate_job(job, platform_->edge_count());
  if (!problem.empty()) {
    throw std::runtime_error("arrival stream " + stream_->name() +
                             " emitted an invalid job: " + problem);
  }
  last_arrival_ = job.release;
}

// --- next-event prediction over the active set ---

/// Earliest predicted activity end (infinity when nothing is running).
/// Every decision round deactivates and re-grants the whole active set, so
/// each member's anchor is now_ and its end time is one clamp + divide away
/// — a branch-lean linear scan over the SoA hot fields. This replaced a
/// lazy-deletion heap: with every entry re-pushed every round the heap was
/// all maintenance and no reuse (see DESIGN.md §8).
Time EngineCore::next_activity_end() const {
  Time next = kTimeInfinity;
  for (const std::int32_t slot : active_ids_) {
    next = std::min(next, activity_end(slot));
  }
  return next;
}

/// Releases every arrival due at `now_` (within tolerance), each one
/// routed through admission control.
void EngineCore::fire_releases() {
  while (pending_ && time_le(pending_->release, now_)) {
    const Job job = *pending_;
    advance_stream();
    if (job.id >= next_id_) next_id_ = job.id + 1;
    admit(job);
  }
}

// --- admission control (EngineConfig::admission) ---

/// Admits one arrival: with admission disabled this is exactly the plain
/// release path (live insert + kRelease event + trace instant). A
/// rejected arrival leaves no trace besides the kReject instant and the
/// admission log — policies never learn it existed.
void EngineCore::admit(const Job& job) {
  if (admission_on_ && !admission_allows(job)) return;
  const std::int32_t slot = acquire_slot(job);
  pool_.released(slot) = 1;
  live_.insert(job.id, slot);
  membership_changed_ = true;
  ++remaining_jobs_;
  ++stats_.admitted;
  if (live_.size() > stats_.peak_live) {
    stats_.peak_live = live_.size();
  }
  events_.push_back(Event{EventKind::kRelease, job.id, now_});
  if (trace_ != nullptr) {
    trace_instant(obs::TracePoint::kRelease, slot, -1, 0.0);
  }
}

/// Finds (or creates) the state slot for an admitted arrival: a recycled
/// one from the free list, else a new one at the end of every per-slot
/// array.
std::int32_t EngineCore::acquire_slot(const Job& job) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_.clear_slot(slot);
  } else {
    slot = pool_.grow();
    if (record_schedule_) recorders_.emplace_back();
    started_.push_back(0);
    seen_round_.push_back(0);
    if (trace_ != nullptr) {
      spans_.emplace_back();
      run_index_.push_back(0);
    }
    if (provenance_on_) {
      last_dir_target_.push_back(kDirectiveNone);
      last_dir_reason_.push_back(0);
    }
  }
  pool_.job(slot) = job;
  pool_.best_time(slot) = platform_->best_time(job);
  if (record_schedule_) recorders_[slot] = ActivityRecorder{};
  started_[slot] = 0;
  seen_round_[slot] = 0;
  if (trace_ != nullptr) {
    spans_[slot] = SpanState{};
    run_index_[slot] = 0;
  }
  if (provenance_on_) {
    last_dir_target_[slot] = kDirectiveNone;
    last_dir_reason_[slot] = 0;
  }
  id_map_.insert(job.id, slot);
  if (id_map_.size() > peak_tracked_) peak_tracked_ = id_map_.size();
  return slot;
}

/// Applies the configured shed rule, then the caps. Returns true when the
/// arrival may be admitted; otherwise records and traces the rejection.
bool EngineCore::admission_allows(const Job& job) {
  const AdmissionConfig& adm = config_.admission;
  if (adm.rule == AdmissionRule::kShedInfeasible && adm.stretch_limit > 0.0) {
    shed_infeasible(std::max(adm.stretch_limit, 1.0));
  }
  if (adm.max_live == 0 || live_.size() < adm.max_live) return true;
  if (adm.rule == AdmissionRule::kRejectHopeless && shed_most_hopeless()) {
    return true;
  }
  reject(job);
  return false;
}

/// Stretch lower bound of a never-started resident: even started now on
/// its best resource it finishes no earlier than now_ + best_time.
double EngineCore::stretch_lower_bound(std::int32_t slot) const {
  const double best = pool_.best_time(slot);
  const double denom = best > 0.0 ? best : 1.0;
  return (now_ - pool_.job(slot).release + best) / denom;
}

/// A resident may be shed only if it never started (so the "no recorded
/// activity" invariant holds) and was released strictly before this
/// event batch (so no event in flight can still reference it).
bool EngineCore::sheddable(std::int32_t slot) const {
  return started_[slot] == 0 && !time_le(now_, pool_.job(slot).release);
}

/// kShedInfeasible: evicts every sheddable resident whose stretch lower
/// bound already exceeds `limit` — its deadline release + limit *
/// best_time cannot be met no matter what the policy does.
/// Victims go in id order; a shed erases the walk's current position, and
/// no resident's verdict depends on another's.
void EngineCore::shed_infeasible(double limit) {
  std::size_t i = 0;
  while (i < live_.size()) {
    const std::int32_t slot = live_.slots()[i];
    if (sheddable(slot) && stretch_lower_bound(slot) > limit) {
      shed(slot, ReasonCode::kAdmissionDeadlineInfeasible);
    } else {
      ++i;
    }
  }
}

/// kRejectHopeless: evicts the sheddable resident with the worst stretch
/// lower bound, provided it is worse than the arrival's own (1.0 at its
/// release). Ties prefer the newest (largest id): the walk is in id order.
/// Returns true when a victim was shed, making room for the arrival.
bool EngineCore::shed_most_hopeless() {
  std::int32_t worst = -1;
  double worst_lb = 1.0;
  for (const std::int32_t slot : live_.slots()) {
    if (!sheddable(slot)) continue;
    const double lb = stretch_lower_bound(slot);
    if (lb > worst_lb || (lb == worst_lb && worst >= 0)) {
      worst = slot;
      worst_lb = lb;
    }
  }
  if (worst < 0) return false;
  shed(worst, ReasonCode::kAdmissionStretchHopeless);
  return true;
}

/// Refuses an arrival: no state, no kRelease event, only the kReject
/// instant (value = resident count at refusal) and the admission log.
void EngineCore::reject(const Job& job) {
  ++stats_.rejections;
  if (config_.record_admission) {
    admission_log_.push_back(
        AdmissionRecord{job.id, now_, ReasonCode::kAdmissionQueueFull, false});
  }
  if (trace_ != nullptr) {
    obs::TraceRecord rec;
    rec.kind = obs::TraceKind::kInstant;
    rec.point = obs::TracePoint::kReject;
    rec.job = job.id;
    rec.origin = job.origin;
    rec.begin = rec.end = now_;
    rec.value = static_cast<double>(live_.size());
    rec.reason = static_cast<int>(ReasonCode::kAdmissionQueueFull);
    trace_->record(rec);
  }
  // A rejected id acquires no slot and is never entered into the id map,
  // so there is nothing to clean up.
}

/// Evicts an admitted, never-started resident (value = its stretch lower
/// bound at eviction). Its slot is recycled immediately — nothing in
/// flight references a never-started job released before this batch.
void EngineCore::shed(std::int32_t slot, ReasonCode reason) {
  const JobId id = pool_.job(slot).id;
  if (trace_ != nullptr) {
    obs::TraceRecord rec;
    rec.kind = obs::TraceKind::kInstant;
    rec.point = obs::TracePoint::kShed;
    rec.job = id;
    rec.run = run_index_[slot];
    rec.origin = pool_.job(slot).origin;
    rec.alloc = pool_.alloc(slot);
    rec.begin = rec.end = now_;
    rec.value = stretch_lower_bound(slot);
    rec.reason = static_cast<int>(reason);
    trace_->record(rec);
  }
  live_.erase(id);
  membership_changed_ = true;
  pool_.released(slot) = 0;  // expelled: live() is false from here on
  ++stats_.sheds;
  --remaining_jobs_;
  if (config_.record_admission) {
    admission_log_.push_back(AdmissionRecord{id, now_, reason, true});
  }
  retire_slot(slot);
}

/// Recycles a slot: harvests its run record and completion time into the
/// result logs and returns the slot to the free list.
void EngineCore::retire_slot(std::int32_t slot) {
  const JobId id = pool_.job(slot).id;
  if (record_schedule_) {
    ActivityRecorder& rec = recorders_[slot];
    rec.close(now_);
    final_runs_.emplace_back(id, std::move(rec.current));
    rec.current = RunRecord{};
  }
  if (config_.record_completions && pool_.done(slot) != 0) {
    completion_log_.emplace_back(id, pool_.completion(slot));
  }
  id_map_.erase(id);
  free_slots_.push_back(slot);
}

/// Retires every job whose completion events the policy has now seen.
void EngineCore::flush_retired() {
  for (const std::int32_t slot : retire_queue_) retire_slot(slot);
  retire_queue_.clear();
}

// --- trace emission helpers; callers guard on trace_ != nullptr ---

/// Closes the slot's open activity span, emitting it ending at `now_`.
void EngineCore::trace_close_span(std::int32_t slot) {
  SpanState& span = spans_[slot];
  if (span.activity == Activity::kNone) return;
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kSpan;
  rec.point = span_point(span.activity);
  rec.job = pool_.job(slot).id;
  rec.run = run_index_[slot];
  rec.alloc = span.alloc;
  rec.origin = pool_.job(slot).origin;
  rec.begin = span.begin;
  rec.end = now_;
  trace_->record(rec);
  span.activity = Activity::kNone;
}

/// `slot` < 0 emits a job-less instant (rec.job = -1).
void EngineCore::trace_instant(obs::TracePoint point, std::int32_t slot,
                               int cloud, double value) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kInstant;
  rec.point = point;
  rec.cloud = cloud;
  rec.begin = rec.end = now_;
  rec.value = value;
  if (slot >= 0) {
    rec.job = pool_.job(slot).id;
    rec.run = run_index_[slot];
    rec.origin = pool_.job(slot).origin;
    rec.alloc = pool_.alloc(slot);
  }
  trace_->record(rec);
}

/// Emits one decision-provenance instant (TracePoint::kDirective):
/// alloc = resolved target, cloud = allocation before the directive,
/// value = priority, reason = the policy's ReasonCode. Caller guards on
/// provenance_on_.
void EngineCore::trace_directive(std::int32_t slot, int source, int target,
                                 const Directive& d) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kInstant;
  rec.point = obs::TracePoint::kDirective;
  rec.job = pool_.job(slot).id;
  rec.run = run_index_[slot];
  rec.origin = pool_.job(slot).origin;
  rec.alloc = target;
  rec.cloud = source;
  rec.begin = rec.end = now_;
  rec.value = d.priority;
  rec.reason = static_cast<int>(d.reason);
  trace_->record(rec);
  last_dir_target_[slot] = target;
  last_dir_reason_[slot] = static_cast<int>(d.reason);
}

/// Provenance for a directive that does not move the job (kTargetKeep or
/// an explicit re-confirmation of the current allocation). Policies emit
/// these at EVERY event, so identical repeats are deduplicated: a keep is
/// recorded when its resolved target or reason differs from the job's
/// last emitted directive.
void EngineCore::trace_keep_directive(std::int32_t slot, const Directive& d) {
  const int alloc = pool_.alloc(slot);
  if (last_dir_target_[slot] == alloc &&
      last_dir_reason_[slot] == static_cast<int>(d.reason)) {
    return;
  }
  trace_directive(slot, alloc, alloc, d);
}

void EngineCore::trace_counter(obs::TracePoint point, double value) {
  obs::TraceRecord rec;
  rec.kind = obs::TraceKind::kCounter;
  rec.point = point;
  rec.begin = rec.end = now_;
  rec.value = value;
  trace_->record(rec);
}

void EngineCore::step() {
  // Re-anchor the profiler's lap clock: everything between here and the
  // next lap() belongs to the first phase of this round.
  if (profiler_ != nullptr) profiler_->mark();
  decide_and_activate();
  advance_to_next_event();
}

void EngineCore::decide_and_activate() {
  // 1. Ask the policy what to do about the events that just fired. The
  //    view aliases the id-ordered live index (SimView::live_jobs() and
  //    live_slots()), which also drives the implicit-keep walk below.
  // No-op round elision (ElisionContract, DESIGN.md §8): when no event of
  // this batch is in the policy's trigger set, decide() provably would emit
  // nothing (kEmpty) or re-emit the previous round's directives verbatim
  // (kReuse, additionally requiring unchanged live membership so no stale
  // id resurfaces) — so the engine skips the call and applies that output
  // directly. Behaviorally invisible: the round still counts as a decision,
  // still traces, and re-applying kept directives is idempotent (the
  // keep-dedup path in apply_directive).
  bool elided = false;
  if (elide_.mode != ElisionContract::Mode::kNone && decided_once_) {
    bool triggered = false;
    for (const Event& e : events_) {
      if ((elide_.triggers & ElisionContract::bit(e.kind)) != 0U) {
        triggered = true;
        break;
      }
    }
    if (!triggered) {
      elided = elide_.mode == ElisionContract::Mode::kEmptyUnlessTriggered ||
               !membership_changed_;
    }
  }
  // One buffer, reused round after round: with the per-policy workspaces
  // (DESIGN.md §6) the steady-state policy hot path allocates nothing. An
  // elided kReuse round keeps the previous contents untouched.
  std::vector<Directive>& directives = directives_;
  if (elided) {
    if (elide_.mode == ElisionContract::Mode::kEmptyUnlessTriggered) {
      directives.clear();
      directive_slots_.clear();
    }
    ++elided_rounds_;
  } else {
    const SimView view(*instance_, pool_, now_, live_.ids(), live_.slots(),
                       id_map_);
    // Two steady-clock reads per round are measurable at batch scale, so
    // the policy timer sits behind a switch (EngineConfig::time_policy,
    // off by default; the profiler's kDecide phase times the same span).
    const bool timed = config_.time_policy;
    std::chrono::steady_clock::time_point t0;
    if (timed) t0 = std::chrono::steady_clock::now();
    directives.clear();
    policy_->decide(view, events_, directives);
    if (timed) {
      const auto t1 = std::chrono::steady_clock::now();
      stats_.policy_seconds += std::chrono::duration<double>(t1 - t0).count();
    }
    decided_once_ = true;
    membership_changed_ = false;
  }
  ++stats_.decisions;
  if (trace_samples_) {
    trace_instant(obs::TracePoint::kDecision, -1, -1,
                  static_cast<double>(directives.size()));
  }
  events_.clear();
  // kDecide covers the elision check and decide() itself; the lap also
  // feeds the per-policy decision-latency sketch. Elided rounds are
  // observed too — elision is a real latency win and belongs in the
  // distribution (ProfileReport::elided_rounds separates the populations).
  if (profiler_ != nullptr) profiler_->lap_decision();

  // 2. Close all open intervals; they will reopen seamlessly below
  //    (IntervalSet::add merges touching pieces). A job still mid-activity
  //    is flagged so arbitration can spot preemptions: only these jobs —
  //    at most one per processor or port — can lose a resource they still
  //    need. The flag is consumed inside this round (apply_directive or
  //    try_activate), never carried over. Only members of the active set
  //    can be mid-activity; entries already stopped by a completion,
  //    fault abort or message loss are skipped.
  for (const std::int32_t slot : active_ids_) {
    if (pool_.active(slot) != Activity::kNone) {
      pool_.was_active(slot) = 1;
      if (record_schedule_) recorders_[slot].close(now_);
      pool_.active(slot) = Activity::kNone;
    }
  }
  active_ids_.clear();
  // Completed jobs retire only now: the policy has consumed their
  // completion events above, so nothing references the slots any more.
  if (!retire_queue_.empty()) flush_retired();

  // 3. Apply allocation changes (the re-execution rule). Each directive's
  //    job is resolved to its slot once per decide(); an elided kReuse
  //    round has the same membership, hence the same slots.
  if (!elided) resolve_directives();
  for (std::size_t i = 0; i < directives.size(); ++i) {
    apply_directive(directives[i], directive_slots_[i]);
  }
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kAllocate);

  // 4. Activate activities in priority order. Jobs without an explicit
  //    directive keep their allocation at the lowest priority, ordered by
  //    id, so the engine stays work-conserving and deterministic.
  granted_ = 0;
  if (directives.empty()) {
    // Fast path: no explicit directives means every live job is an
    // implicit keep with the same kTimeInfinity key, whose (key, id)
    // sort is exactly ascending id — i.e. the live index as-is. Skip the
    // order buffer and the sort altogether.
    busy_.clear();
    for (const std::int32_t slot : live_.slots()) try_activate(slot);
  } else {
    const auto before = [](const Ranked& a, const Ranked& b) {
      return a.priority != b.priority ? a.priority < b.priority : a.id < b.id;
    };
    // Policies that emit by rank (SSF-EDF, FCFS, Greedy, SRPT) build the
    // order already sorted, implicit keeps included; `ranked` notes whether
    // every entry went in after its predecessor, so only the others sort.
    bool ranked = true;
    const auto append = [&](const Ranked& r) {
      if (!order_.empty() && before(r, order_.back())) ranked = false;
      order_.push_back(r);
    };
    order_.clear();
    for (std::size_t i = 0; i < directives.size(); ++i) {
      const std::int32_t slot = directive_slots_[i];
      if (slot >= 0 && pool_.live(slot)) {
        append(Ranked{directives[i].priority, directives[i].job, slot});
      }
    }
    // Round stamps replace a per-round O(n) boolean reset: a job is
    // "seen" iff its stamp equals the current round's.
    if (++round_ == 0) {  // wrap: old stamps could collide, wipe them
      seen_round_.assign(seen_round_.size(), 0);
      round_ = 1;
    }
    for (const Ranked& r : order_) seen_round_[r.slot] = round_;
    const std::span<const JobId> ids = live_.ids();
    const std::span<const std::int32_t> slots = live_.slots();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (seen_round_[slots[i]] != round_) {
        append(Ranked{kTimeInfinity, ids[i], slots[i]});
      }
    }
    // (priority, id) pairs only tie when they are fully identical
    // (duplicate directives), so a plain sort yields the same sequence a
    // stable sort would — without libstdc++'s temporary buffer — and an
    // order built sorted is already that sequence.
    if (!ranked) std::sort(order_.begin(), order_.end(), before);

    busy_.clear();
    for (const Ranked& r : order_) try_activate(r.slot);
  }
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kActivate);

  // 5. Ready-queue depth after arbitration: live jobs holding no
  //    resource. A job holds a resource iff try_activate granted it one
  //    this round, so the depth falls out of two counters with no extra
  //    pass over the pool.
  const std::uint64_t waiting = live_.size() - granted_;
  if (waiting > stats_.max_queue_depth) stats_.max_queue_depth = waiting;
  if (trace_samples_) sample_counters(waiting);
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kEmit);
}

/// Emits the event-granularity time series into the trace.
void EngineCore::sample_counters(std::uint64_t waiting) {
  trace_counter(obs::TracePoint::kReadyQueueDepth,
                static_cast<double>(waiting));
  double live_max = stats_.max_stretch;
  for (const std::int32_t slot : live_.slots()) {
    const double best = pool_.best_time(slot);
    const double denom = best > 0.0 ? best : 1.0;
    live_max = std::max(live_max, (now_ - pool_.job(slot).release) / denom);
  }
  trace_counter(obs::TracePoint::kLiveMaxStretch, live_max);
  if (platform_->edge_count() > 0) {
    int busy = 0;
    for (std::size_t i = 0; i < busy_.edge_cpu.stamp.size(); ++i) {
      busy += busy_.busy(busy_.edge_cpu, i) ? 1 : 0;
    }
    trace_counter(obs::TracePoint::kEdgeUtilization,
                  static_cast<double>(busy) / platform_->edge_count());
  }
  if (platform_->cloud_count() > 0) {
    int busy = 0;
    for (std::size_t i = 0; i < busy_.cloud_cpu.stamp.size(); ++i) {
      busy += busy_.busy(busy_.cloud_cpu, i) ? 1 : 0;
    }
    trace_counter(obs::TracePoint::kCloudUtilization,
                  static_cast<double>(busy) / platform_->cloud_count());
  }
}

/// Resolves each directive's job to its state slot, enforcing the
/// directive-id contract (see Directive): a negative id, or one above every
/// released id, throws; a released id with no state left resolves to a
/// negative slot and the directive is ignored.
void EngineCore::resolve_directives() {
  directive_slots_.clear();
  for (const Directive& d : directives_) {
    if (d.job < 0 || d.job >= next_id_) {
      throw std::runtime_error("policy " + policy_->name() +
                               " issued a directive for unknown job " +
                               std::to_string(d.job));
    }
    directive_slots_.push_back(id_map_.find(d.job));
  }
}

void EngineCore::apply_directive(const Directive& d, std::int32_t slot) {
  // Completed, rejected or shed: a stale directive.
  if (slot < 0 || !pool_.live(slot)) return;
  if (d.target == kTargetKeep) {
    if (provenance_on_) trace_keep_directive(slot, d);
    return;
  }
  if (d.target != kAllocEdge &&
      (!is_cloud_alloc(d.target) || d.target >= platform_->cloud_count())) {
    throw std::runtime_error("policy " + policy_->name() +
                             " issued invalid target " +
                             std::to_string(d.target) + " for job " +
                             std::to_string(d.job));
  }
  if (d.target == pool_.alloc(slot)) {
    if (provenance_on_) trace_keep_directive(slot, d);
    return;
  }
  if (provenance_on_) trace_directive(slot, pool_.alloc(slot), d.target, d);

  ActivityRecorder* rec = record_schedule_ ? &recorders_[slot] : nullptr;
  if (rec != nullptr) rec->close(now_);
  const int old_alloc = pool_.alloc(slot);
  if (old_alloc != kAllocUnassigned) {
    // Abandon the current run; its history stays on the books because it
    // physically occupied resources.
    ++pool_.reassignments(slot);
    ++stats_.reassignments;
    if (rec != nullptr) {
      if (rec->has_history()) {
        abandoned_runs_.emplace_back(d.job, std::move(rec->current));
      }
      rec->current = RunRecord{};
    }
  }
  // A reassignment is not a preemption: the job lost its resource because
  // its allocation changed, so drop the round's mid-activity flag.
  pool_.was_active(slot) = 0;
  if (trace_ != nullptr) {
    trace_close_span(slot);
    if (old_alloc != kAllocUnassigned) ++run_index_[slot];
  }
  pool_.alloc(slot) = d.target;
  if (rec != nullptr) rec->current.alloc = d.target;
  if (d.target == kAllocEdge) {
    pool_.rem_up(slot) = 0.0;
    pool_.rem_work(slot) = pool_.job(slot).work;
    pool_.rem_down(slot) = 0.0;
  } else {
    pool_.rem_up(slot) = pool_.job(slot).up;
    pool_.rem_work(slot) = pool_.job(slot).work;
    pool_.rem_down(slot) = pool_.job(slot).down;
  }
  if (trace_ != nullptr && old_alloc != kAllocUnassigned) {
    trace_instant(obs::TracePoint::kReassignment, slot, -1,
                  static_cast<double>(old_alloc));
  }
}

/// Consumes a job's was_active flag after it failed arbitration: a job
/// that was mid-activity, kept its allocation, and got nothing was
/// preempted (outprioritized, or its cloud entered an outage / crash
/// window). A no-op for jobs that were idle or already re-granted.
void EngineCore::note_preemption(std::int32_t slot) {
  if (pool_.was_active(slot) == 0) return;
  pool_.was_active(slot) = 0;
  ++stats_.preemptions;
  if (trace_ != nullptr) {
    trace_close_span(slot);
    trace_instant(obs::TracePoint::kPreemption, slot, -1, 0.0);
  }
}

void EngineCore::try_activate(const std::int32_t slot) {
  if (!pool_.live(slot)) return;
  const Activity needed = pool_.next_activity(slot);
  if (needed == Activity::kNone) {
    note_preemption(slot);
    return;
  }
  const int alloc = pool_.alloc(slot);
  const EdgeId o = pool_.job(slot).origin;
  const JobId id = pool_.job(slot).id;
  // A cloud processor inside an availability outage serves nothing —
  // neither computation nor communication involving it. The same holds
  // for an unannounced crash, except that the policy was never told.
  if (is_cloud_alloc(alloc) && (!instance_->cloud_available(alloc, now_) ||
                                cloud_down_[alloc] != 0)) {
    note_preemption(slot);
    return;
  }
  switch (needed) {
    case Activity::kCompute:
      if (alloc == kAllocEdge) {
        if (busy_.busy(busy_.edge_cpu, o)) {
          note_preemption(slot);
          return;
        }
        busy_.claim(busy_.edge_cpu, o, id);
      } else {
        if (busy_.busy(busy_.cloud_cpu, alloc)) {
          note_preemption(slot);
          return;
        }
        busy_.claim(busy_.cloud_cpu, alloc, id);
      }
      break;
    case Activity::kUplink:
      if (busy_.busy(busy_.edge_send, o) ||
          busy_.busy(busy_.cloud_recv, alloc)) {
        note_preemption(slot);
        return;
      }
      busy_.claim(busy_.edge_send, o, id);
      busy_.claim(busy_.cloud_recv, alloc, id);
      break;
    case Activity::kDownlink:
      if (busy_.busy(busy_.cloud_send, alloc) ||
          busy_.busy(busy_.edge_recv, o)) {
        note_preemption(slot);
        return;
      }
      busy_.claim(busy_.cloud_send, alloc, id);
      busy_.claim(busy_.edge_recv, o, id);
      break;
    case Activity::kNone:
      return;
  }
  pool_.active(slot) = needed;
  pool_.was_active(slot) = 0;
  // Lazy progress accounting: anchor the activity at now_ with its
  // consumption rate and enter the active set; the end time is predicted
  // analytically from these fields when the round advances (the prediction
  // is exact — rates only change through a re-grant).
  pool_.rate(slot) = needed == Activity::kCompute
                         ? (alloc == kAllocEdge ? platform_->edge_speed(o)
                                                : platform_->cloud_speed(alloc))
                         : 1.0;
  pool_.last_update(slot) = now_;
  active_ids_.push_back(slot);
  ++granted_;
  if (record_schedule_) recorders_[slot].open(needed, now_);
  if (started_[slot] == 0) {
    started_[slot] = 1;
    if (metrics_ != nullptr) {
      queue_wait_.observe(now_ - pool_.job(slot).release);
    }
  }
  if (trace_ != nullptr) {
    // Reopening the same activity on the same allocation continues the
    // current span; anything else starts a fresh one.
    SpanState& span = spans_[slot];
    if (span.activity != needed || span.alloc != alloc) {
      trace_close_span(slot);
      span.activity = needed;
      span.alloc = alloc;
      span.begin = now_;
    }
  }
}

Time EngineCore::activity_end(std::int32_t slot) const {
  // rate(slot) was fixed at grant time: the processor speed for computes,
  // 1.0 for transfers — so one select + one divide covers all three kinds
  // (x / 1.0 is exact in IEEE arithmetic, keeping transfer end times
  // bit-identical to the historical now_ + rem form).
  double rem = 0.0;
  switch (pool_.active(slot)) {
    case Activity::kNone:
      return kTimeInfinity;
    case Activity::kUplink:
      rem = pool_.rem_up(slot);
      break;
    case Activity::kCompute:
      rem = pool_.rem_work(slot);
      break;
    case Activity::kDownlink:
      rem = pool_.rem_down(slot);
      break;
  }
  return now_ + clamp_amount(rem) / pool_.rate(slot);
}

void EngineCore::advance_to_next_event() {
  // Earliest predicted activity end: one pass over the active set.
  Time next = next_activity_end();
  if (pending_) next = std::min(next, pending_->release);
  while (next_boundary_ < boundaries_.size() &&
         time_le(boundaries_[next_boundary_], now_)) {
    ++next_boundary_;
  }
  if (next_boundary_ < boundaries_.size()) {
    next = std::min(next, boundaries_[next_boundary_]);
  }
  if (next_wake_ < wakes_.size()) {
    next = std::min(next, wakes_[next_wake_].time);
  }
  if (next == kTimeInfinity) {
    std::ostringstream os;
    os << "simulation stalled at t=" << now_ << ": policy "
       << policy_->name() << " left all " << remaining_jobs_
       << " live job(s) without a runnable activity and no event is "
          "pending; live jobs: "
       << describe_live_jobs();
    throw std::runtime_error(os.str());
  }

  if (profiler_ != nullptr) {
    profiler_->note_scan(active_ids_.size());
    profiler_->lap(obs::EnginePhase::kEventScan);
  }

  // Materialize progress for the active set only (every member was
  // re-anchored at now_ this round, so the elapsed span is next - now_).
  // One contiguous pass over the SoA hot fields, vectorizer-friendly.
  pool_.advance_active(active_ids_.data(), active_ids_.size(), next);
  now_ = next;
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kAdvance);

  // Fire completions in job-id order — the order policies and traces
  // observe. The active set is in grant order, so collect the slots whose
  // activity ended (rarely more than one) and sort just those.
  fired_.clear();
  for (const std::int32_t slot : active_ids_) {
    bool ended = false;
    switch (pool_.active(slot)) {
      case Activity::kUplink:
        ended = amount_done(pool_.rem_up(slot));
        break;
      case Activity::kCompute:
        ended = amount_done(pool_.rem_work(slot));
        break;
      case Activity::kDownlink:
        ended = amount_done(pool_.rem_down(slot));
        break;
      case Activity::kNone:
        break;
    }
    if (ended) fired_.push_back(slot);
  }
  std::sort(fired_.begin(), fired_.end(),
            [this](std::int32_t a, std::int32_t b) {
              return pool_.job(a).id < pool_.job(b).id;
            });
  bool job_completed = false;
  for (const std::int32_t slot : fired_) {
    const JobId id = pool_.job(slot).id;
    switch (pool_.active(slot)) {
      case Activity::kUplink:
        pool_.rem_up(slot) = 0.0;
        events_.push_back(Event{EventKind::kUplinkDone, id, now_});
        break;
      case Activity::kCompute:
        pool_.rem_work(slot) = 0.0;
        events_.push_back(Event{EventKind::kComputeDone, id, now_});
        break;
      case Activity::kDownlink:
        pool_.rem_down(slot) = 0.0;
        events_.push_back(Event{EventKind::kDownlinkDone, id, now_});
        break;
      case Activity::kNone:
        break;
    }
    if (record_schedule_) recorders_[slot].close(now_);
    pool_.active(slot) = Activity::kNone;
    if (trace_ != nullptr) trace_close_span(slot);
    if (pool_.all_amounts_done(slot)) {
      pool_.done(slot) = 1;
      job_completed = true;
      live_.erase(id);
      membership_changed_ = true;
      pool_.completion(slot) = now_;
      --remaining_jobs_;
      ++stats_.completed;
      const double best = pool_.best_time(slot);
      const double denom = best > 0.0 ? best : 1.0;
      const double stretch = (now_ - pool_.job(slot).release) / denom;
      stats_.max_stretch = std::max(stats_.max_stretch, stretch);
      if (metrics_ != nullptr) stretch_.observe(stretch);
      if (trace_ != nullptr) {
        trace_instant(obs::TracePoint::kCompletion, slot, -1, stretch);
      }
      // Retirement is deferred to the next decision round: the policy
      // must still see this completion event with the state attached.
      retire_queue_.push_back(slot);
    }
  }
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kCompletions);
  fire_faults();
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kFaults);
  fire_releases();

  stats_.events += events_.size();
  // Progress watchdog: a thrashing policy fires activity events forever
  // without completing a job, so count events since the last completion —
  // meaningful even when the total event count is unbounded (streaming).
  if (job_completed) {
    events_since_completion_ = 0;
  } else {
    events_since_completion_ += events_.size();
    const std::uint64_t cap = std::max<std::uint64_t>(
        kStallFloor, 512 * static_cast<std::uint64_t>(live_.size()));
    if (events_since_completion_ > cap) {
      std::ostringstream os;
      os << "progress watchdog: " << events_since_completion_
         << " event(s) since the last job completion (cap " << cap
         << ") at t=" << now_ << " under policy " << policy_->name()
         << " with " << live_.size() << " live job(s) after "
         << stats_.reassignments << " reassignment(s) and "
         << stats_.fault_aborts
         << " fault abort(s); the policy is likely thrashing "
            "re-executions; live jobs: "
         << describe_live_jobs();
      throw std::runtime_error(os.str());
    }
  }
  // kAdmission closes the round: release firing, admission control and the
  // watchdog accounting above. Together with the laps before it the phases
  // tile the whole step, which is what lets --profile-out reconcile the
  // phase sum against an independent wall measurement.
  if (profiler_ != nullptr) profiler_->lap(obs::EnginePhase::kAdmission);
  if (heartbeat_ != nullptr) {
    heartbeat_->tick(now_, stats_.events, live_.size(),
                     stats_.rejections + stats_.sheds);
  }
}

/// Compact dump of the live jobs — id, allocation, current activity —
/// for the stall / progress-watchdog diagnostics. Capped at 8 entries.
std::string EngineCore::describe_live_jobs() const {
  std::ostringstream os;
  int shown = 0;
  for (const std::int32_t slot : live_.slots()) {
    if (shown == 8) {
      os << ", ...";
      break;
    }
    if (shown > 0) os << ", ";
    os << "J" << pool_.job(slot).id << "(";
    const int alloc = pool_.alloc(slot);
    if (alloc == kAllocUnassigned) {
      os << "unassigned";
    } else if (alloc == kAllocEdge) {
      os << "edge" << pool_.job(slot).origin;
    } else {
      os << "cloud" << alloc;
      if (cloud_down_[alloc] != 0) os << ":down";
    }
    os << "/" << to_string(pool_.active(slot)) << ")";
    ++shown;
  }
  if (shown == 0) os << "none";
  return os.str();
}

/// Processes every fault-timeline wake-up that is due at `now_`: flips
/// the down/up state, fires the monitoring events, aborts crash victims
/// (progress fully discarded — the machine's memory is gone) and corrupts
/// in-flight messages at loss instants.
void EngineCore::fire_faults() {
  while (next_wake_ < wakes_.size() &&
         time_le(wakes_[next_wake_].time, now_)) {
    const FaultWake& wake = wakes_[next_wake_];
    const FaultSpec& spec = config_.faults.faults[wake.spec];
    if (wake.recovery) {
      cloud_down_[spec.cloud] = 0;
      push_fault_event(Event{EventKind::kRecovery, -1, now_, spec.cloud});
      if (trace_ != nullptr) {
        trace_instant(obs::TracePoint::kRecovery, -1, spec.cloud, 0.0);
      }
    } else if (spec.kind == FaultKind::kCrash) {
      cloud_down_[spec.cloud] = 1;
      push_fault_event(Event{EventKind::kFault, -1, now_, spec.cloud});
      if (trace_ != nullptr) {
        trace_instant(obs::TracePoint::kFault, -1, spec.cloud, 0.0);
      }
      abort_jobs_on_cloud(spec.cloud);
    } else {
      corrupt_in_flight_message(spec);
    }
    ++next_wake_;
  }
}

/// Crash semantics: every job allocated to the crashed cloud loses ALL
/// progress (uplink included — the data sat on the dead machine, not in
/// the network) and returns to the unassigned state; the partial run
/// stays on the books as an abandoned run because it physically occupied
/// resources.
void EngineCore::abort_jobs_on_cloud(CloudId crashed) {
  // Victims come from the live set (no instance-wide sweep), walked in id
  // order so the abort events fire in job-id order. An abort leaves live
  // membership alone.
  for (const std::int32_t slot : live_.slots()) {
    if (pool_.alloc(slot) != crashed) continue;
    const JobId id = pool_.job(slot).id;
    if (trace_ != nullptr) {
      trace_close_span(slot);
      trace_instant(obs::TracePoint::kFault, slot, crashed, 0.0);
      ++run_index_[slot];
    }
    if (record_schedule_) {
      ActivityRecorder& rec = recorders_[slot];
      rec.close(now_);
      if (rec.has_history()) {
        abandoned_runs_.emplace_back(id, std::move(rec.current));
      }
      rec.current = RunRecord{};
    }
    pool_.alloc(slot) = kAllocUnassigned;
    pool_.rem_up(slot) = 0.0;
    pool_.rem_work(slot) = 0.0;
    pool_.rem_down(slot) = 0.0;
    pool_.active(slot) = Activity::kNone;
    // The abort changed the allocation without a directive: the next
    // keep/assign decision is new information and must be re-emitted.
    if (provenance_on_) last_dir_target_[slot] = kDirectiveNone;
    ++stats_.fault_aborts;
    push_fault_event(Event{EventKind::kFault, id, now_, crashed});
  }
}

/// Loss semantics: the message in flight on the hit direction of the
/// cloud's link at this instant is corrupted and must be retransmitted
/// from zero. A downlink loss keeps the execution progress (the result
/// still sits on the cloud); an uplink loss re-pays the whole upload.
/// Nothing in flight => the loss is unobservable and hits nobody.
void EngineCore::corrupt_in_flight_message(const FaultSpec& spec) {
  const Activity hit = spec.kind == FaultKind::kUplinkLoss
                           ? Activity::kUplink
                           : Activity::kDownlink;
  // Only an active job can be mid-transmission, and one-port arbitration
  // grants at most one per direction per cloud: the first match is the
  // only one.
  for (const std::int32_t slot : active_ids_) {
    if (pool_.alloc(slot) != spec.cloud || pool_.active(slot) != hit) {
      continue;
    }
    // The corrupted transmission physically used the link: its interval
    // stays recorded in the current run (quantity checks are >=).
    if (record_schedule_) recorders_[slot].close(now_);
    pool_.active(slot) = Activity::kNone;
    if (hit == Activity::kUplink) {
      pool_.rem_up(slot) = pool_.job(slot).up;
      ++stats_.uplink_retransmits;
    } else {
      pool_.rem_down(slot) = pool_.job(slot).down;
      ++stats_.downlink_retransmits;
    }
    ++stats_.message_losses;
    if (trace_ != nullptr) {
      trace_close_span(slot);
      trace_instant(hit == Activity::kUplink
                        ? obs::TracePoint::kUplinkLoss
                        : obs::TracePoint::kDownlinkLoss,
                    slot, spec.cloud, 0.0);
    }
    push_fault_event(Event{EventKind::kFault, pool_.job(slot).id, now_,
                           spec.cloud});
    break;  // one-port: at most one message per direction per cloud
  }
}

void EngineCore::push_fault_event(const Event& event) {
  events_.push_back(event);
  fault_log_.push_back(event);
}

bool EngineCore::step_rounds(std::uint64_t rounds) {
  if (rounds == 0) {
    while (!done()) step();
    return true;
  }
  for (std::uint64_t i = 0; i < rounds && !done(); ++i) step();
  return done();
}

void EngineCore::finish_into(SimResult& out) {
  if (profiler_ != nullptr) profiler_->mark();
  // The last completions of the run never saw another decision round, so
  // their slots still sit in the retire queue — harvest them.
  flush_retired();
  // The id map's high-water mark is reported for a caller's stream only; a
  // run over an in-memory instance reads 0, as documented on SimStats.
  stats_.peak_tracked = stream_ == &replay_ ? 0 : peak_tracked_;
  // The run's one write to the registry: counters mirroring SimStats,
  // high-water gauges and the run's sketches, so the registry and the
  // returned stats are consistent by construction.
  if (metrics_ != nullptr) {
    obs::MetricsRegistry& m = *metrics_;
    const std::pair<const char*, std::uint64_t> counters[] = {
        {"engine.events", stats_.events},
        {"engine.decisions", stats_.decisions},
        {"engine.reassignments", stats_.reassignments},
        {"engine.preemptions", stats_.preemptions},
        {"engine.fault_aborts", stats_.fault_aborts},
        {"engine.uplink_retransmits", stats_.uplink_retransmits},
        {"engine.downlink_retransmits", stats_.downlink_retransmits},
        {"engine.message_losses", stats_.message_losses},
        {"engine.rejections", stats_.rejections},
        {"engine.sheds", stats_.sheds},
        {"engine.elided_rounds", elided_rounds_}};
    for (const auto& [name, value] : counters) m.add(m.counter(name), value);
    const std::pair<const char*, std::uint64_t> gauges[] = {
        {"engine.peak_live", stats_.peak_live},
        {"engine.peak_tracked", stats_.peak_tracked},
        {"engine.max_queue_depth", stats_.max_queue_depth}};
    for (const auto& [name, value] : gauges) {
      m.gauge_max(m.gauge(name), static_cast<double>(value));
    }
    m.sketch_merge(m.sketch("job.stretch"), stretch_);
    m.sketch_merge(m.sketch("job.queue_wait"), queue_wait_);
  }
  if (trace_ != nullptr) trace_->end_trace(now_);
  out.stats = stats_;
  // Swap rather than move: the caller's old buffers land in the core's
  // logs, where the next prepare() clears them for reuse — so a resident
  // (core, result) pair recycles capacity in both directions.
  out.fault_log.swap(fault_log_);
  out.admission_log.swap(admission_log_);
  // Result vectors are indexed by id: one past the largest released id.
  const auto total_jobs = static_cast<std::size_t>(next_id_);
  out.completions.clear();
  if (config_.record_completions) {
    // -1 marks rejected / shed jobs (they never completed).
    out.completions.assign(total_jobs, -1.0);
    for (const auto& [id, completion] : completion_log_) {
      out.completions[id] = completion;
    }
  }
  if (config_.record_schedule) {
    out.schedule = Schedule(static_cast<int>(total_jobs));
    for (auto& [id, run] : abandoned_runs_) {
      out.schedule.job(id).abandoned.push_back(std::move(run));
    }
    // Retired jobs harvested their final run on the way out; rejected ids
    // keep an empty record, like never-started jobs do.
    for (auto& [id, run] : final_runs_) {
      out.schedule.job(id).final_run = std::move(run);
    }
  } else {
    out.schedule = Schedule();
  }
  if (profiler_ != nullptr) {
    profiler_->lap(obs::EnginePhase::kFinish);
    profiler_->end_run(stats_.events, stats_.decisions, elided_rounds_,
                       stats_.peak_live, stats_.peak_tracked);
  }
}

SimResult EngineCore::run() {
  while (!done()) step();
  SimResult out;
  finish_into(out);
  return out;
}

}  // namespace detail

SimResult simulate(const Instance& instance, Policy& policy,
                   const EngineConfig& config) {
  policy.reset(instance);
  detail::EngineCore core;
  core.prepare(instance, nullptr, policy, config);
  return core.run();
}

SimResult simulate_stream(const Instance& base, ArrivalStream& arrivals,
                          Policy& policy, const EngineConfig& config) {
  if (!base.jobs.empty()) {
    throw std::invalid_argument(
        "simulate_stream: the base instance must have an empty job list "
        "(jobs come from the arrival stream)");
  }
  policy.reset(base);
  detail::EngineCore core;
  core.prepare(base, &arrivals, policy, config);
  return core.run();
}

}  // namespace ecs
