// policy.hpp - The event-triggered scheduling-policy interface.
//
// All the paper's heuristics (section V) are event-based: they reconsider
// their decisions only when a job is released or when an uplink, execution
// or downlink completes. At each such point the engine asks the policy for
// *directives*: for each live job, a target location and a priority.
//
//  * target = kAllocEdge        -> run locally on the origin edge processor;
//  * target = k >= 0            -> delegate to cloud processor k;
//  * target = kTargetKeep       -> keep the current allocation and progress.
//
// Changing a job's location discards its progress (the paper's re-execution
// rule). Priorities (lower value = more urgent) drive the engine's resource
// arbitration: at each event the engine walks jobs in priority order and
// activates each job's next needed activity if its processor/ports are
// free — this uniformly realizes preemption, one-port serialization and the
// uplink -> compute -> downlink pipeline for every policy.
//
// Jobs for which the policy returns no directive implicitly keep their
// allocation with the lowest priority (the engine stays work-conserving).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "obs/reason.hpp"
#include "sim/soa.hpp"
#include "sim/state.hpp"

namespace ecs {

/// Directive target sentinel: keep the job where it is, progress intact.
inline constexpr int kTargetKeep = -3;

/// The job a directive names must be one the engine has released: an id
/// that is negative or above every released id throws, naming the policy
/// and the id. Ids below that bound that name no live job (a completed,
/// rejected or shed job) are ignored, so a policy may keep emitting for a
/// job in the round its completion event arrives.
struct Directive {
  JobId job = -1;
  int target = kTargetKeep;  ///< kAllocEdge, cloud index, or kTargetKeep
  double priority = 0.0;     ///< lower = scheduled first
  /// Why the policy chose this target (obs/reason.hpp). Purely diagnostic:
  /// the engine never branches on it — it only copies the code into the
  /// decision-provenance trace when provenance is enabled — so annotated
  /// and unannotated policies produce bit-identical schedules.
  ReasonCode reason = ReasonCode::kUnspecified;
};

/// Read-only view of the simulation passed to policies.
///
/// The view holds the engine's SoA StatePool, its id-ordered live index
/// and its id -> slot map. live_jobs() are the live ids ascending and
/// live_slots() their state slots, position for position, so a policy that
/// walks the live set reads fields_at_slot(live_slots()[i]) without
/// resolving an id. Completed jobs retire and their state slots are
/// recycled, so a job id is never a slot index: slot(id) resolves one
/// through the map. Per-job policy workspaces must be keyed by slot, never
/// by id, to stay O(live).
class SimView {
 public:
  /// `live_jobs` lists the released, unfinished job ids ascending and
  /// `live_slots` their state slots in the same order; the view aliases
  /// both. `id_map` translates a job id to its state slot; ids absent from
  /// it are retired, rejected or not yet released and have no state.
  SimView(const Instance& instance, const soa::StatePool& pool, Time now,
          std::span<const JobId> live_jobs,
          std::span<const std::int32_t> live_slots, const soa::IdMap& id_map)
      : instance_(&instance),
        pool_(&pool),
        live_jobs_(live_jobs),
        live_slots_(live_slots),
        id_map_(&id_map),
        now_(now) {
    assert(live_jobs.size() == live_slots.size());
  }

  [[nodiscard]] const Instance& instance() const noexcept {
    return *instance_;
  }
  [[nodiscard]] const Platform& platform() const noexcept {
    return instance_->platform;
  }
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Number of state slots; every non-negative slot(id) is below it.
  [[nodiscard]] std::size_t state_count() const noexcept {
    return pool_->size();
  }

  /// State slot of `id`; negative when the job is retired, rejected or
  /// unknown. Always >= 0 for live ids and for the jobs of the current
  /// event batch.
  [[nodiscard]] std::int32_t slot(JobId id) const noexcept {
    return id_map_->find(id);
  }

  /// The policy-facing fields of `id`, gathered by value from the SoA
  /// arrays. `id` must be live or belong to the current event batch (the
  /// slot() >= 0 contract above).
  [[nodiscard]] JobFields fields(JobId id) const {
    return fields_at_slot(slot(id));
  }

  /// fields() for a job whose state slot the caller already holds
  /// (slot(id) >= 0), without resolving the id again.
  [[nodiscard]] JobFields fields_at_slot(std::int32_t s) const {
    assert(s >= 0 && static_cast<std::size_t>(s) < pool_->size());
    return pool_->fields(s);
  }

  /// Ids of released, unfinished jobs, ascending. Non-owning: the span
  /// aliases the engine's live index (no copy — this sits on every
  /// policy's hot path) and is valid only while the view is.
  [[nodiscard]] std::span<const JobId> live_jobs() const noexcept {
    return live_jobs_;
  }

  /// The state slots of live_jobs(), position for position.
  [[nodiscard]] std::span<const std::int32_t> live_slots() const noexcept {
    return live_slots_;
  }

 private:
  const Instance* instance_;
  const soa::StatePool* pool_;
  std::span<const JobId> live_jobs_;
  std::span<const std::int32_t> live_slots_;
  const soa::IdMap* id_map_;
  Time now_;
};

/// Per-policy opt-in contract for no-op round elision (DESIGN.md §8).
///
/// A policy that can prove its output is a pure function of a subset of
/// event kinds declares them as `triggers`; on a decision round whose
/// event batch contains no trigger kind, the engine skips decide():
///
///  * kEmptyUnlessTriggered — on such a round decide() would append no
///    directives at all (the policy only ever reacts to its triggers), so
///    the engine substitutes an empty directive list.
///  * kReuseUnlessTriggered — on such a round decide() would re-emit
///    exactly the previous round's directives, provided the live set has
///    not changed since the round that produced them; the engine re-applies
///    the kept buffer verbatim (and falls back to decide() whenever the
///    membership did change).
///
/// The engine always treats kFault and kRecovery as triggers regardless of
/// the declared mask — fault-digesting wrappers and safety both depend on
/// seeing them. Elision must be behaviorally invisible: the equivalence
/// suite pins byte-identical schedules with it on and off.
struct ElisionContract {
  enum class Mode : std::uint8_t {
    kNone,                  ///< never elide; decide() runs every round
    kEmptyUnlessTriggered,  ///< non-trigger rounds emit no directives
    kReuseUnlessTriggered,  ///< non-trigger rounds re-apply the last output
  };

  Mode mode = Mode::kNone;
  std::uint32_t triggers = 0;  ///< bitmask over EventKind (see bit())

  [[nodiscard]] static constexpr std::uint32_t bit(EventKind kind) noexcept {
    return 1U << static_cast<int>(kind);
  }
};

/// Base class for scheduling policies. Policies are stateful across one
/// simulation (reset() is called at the start) but must not retain state
/// across simulations.
///
/// decide() appends into a caller-owned buffer that the engine clears and
/// reuses round after round; together with the per-policy workspaces
/// (reused order/bitmap buffers and a resettable ResourceClock, see
/// DESIGN.md §6) this makes the steady-state hot path allocation-free.
class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the simulation starts.
  virtual void reset(const Instance& instance) { (void)instance; }

  /// The policy's no-op round elision contract (see ElisionContract). The
  /// default opts out: decide() runs every round. Policies whose output
  /// provably depends only on specific event kinds may override; the claim
  /// is pinned by the equivalence suite.
  [[nodiscard]] virtual ElisionContract elision() const { return {}; }

  /// Called at every event batch. `events` holds everything that fired at
  /// the current time (several completions and releases can coincide).
  /// Appends the directives to `out`; the caller passes it in empty (the
  /// engine clears and reuses one buffer across rounds) and `out` must not
  /// alias any state the policy reads.
  virtual void decide(const SimView& view, const std::vector<Event>& events,
                      std::vector<Directive>& out) = 0;

  /// Convenience for tests and tools: decide() into a fresh vector.
  [[nodiscard]] std::vector<Directive> decide_copy(
      const SimView& view, const std::vector<Event>& events) {
    std::vector<Directive> out;
    decide(view, events, out);
    return out;
  }
};

}  // namespace ecs
