// engine_core.hpp - The reusable engine behind simulate(), simulate_stream()
// and the batch driver (sim/batch.hpp).
//
// EngineCore is the event loop of engine.hpp's contract, restructured for
// reuse: a default-constructed core is prepare()d against an (instance,
// policy, config) triple, stepped to completion, harvested with
// finish_into(), and then prepared again for the next run — every internal
// buffer keeps its capacity across runs, so a resident core performs zero
// steady-state allocations per replication. simulate() uses a throwaway
// core; BatchEngine keeps one per world slot.
//
// This header is internal (namespace ecs::detail): the supported entry
// points remain simulate() / simulate_stream() / BatchEngine. Tests include
// it to pin the reuse contract (a reused core is bit-identical to a fresh
// one).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "sim/soa.hpp"

namespace ecs {
namespace detail {

/// Per-job recording of the currently open activity interval plus the
/// in-progress run record.
struct ActivityRecorder {
  RunRecord current;
  Activity open_activity = Activity::kNone;
  Time open_start = 0.0;

  void open(Activity activity, Time now) {
    open_activity = activity;
    open_start = now;
  }

  void close(Time now) {
    if (open_activity == Activity::kNone) return;
    switch (open_activity) {
      case Activity::kUplink:
        current.uplink.add(open_start, now);
        break;
      case Activity::kCompute:
        current.exec.add(open_start, now);
        break;
      case Activity::kDownlink:
        current.downlink.add(open_start, now);
        break;
      case Activity::kNone:
        break;
    }
    open_activity = Activity::kNone;
  }

  [[nodiscard]] bool has_history() const noexcept {
    return !current.uplink.empty() || !current.exec.empty() ||
           !current.downlink.empty();
  }
};

/// Busy markers for one decision round: which job holds each resource.
/// Lanes are epoch-stamped so clear() is O(1) — it bumps the round epoch
/// and every stale stamp reads as free — instead of six O(edges + clouds)
/// fills per decision round.
struct BusyMap {
  struct Lane {
    std::vector<JobId> owner;
    std::vector<std::uint32_t> stamp;

    void resize(std::size_t n) {
      owner.assign(n, -1);
      stamp.assign(n, 0);
    }
  };

  Lane edge_cpu, edge_send, edge_recv;
  Lane cloud_cpu, cloud_send, cloud_recv;
  std::uint32_t epoch = 1;

  void resize(const Platform& platform) {
    const auto edges = static_cast<std::size_t>(platform.edge_count());
    const auto clouds = static_cast<std::size_t>(platform.cloud_count());
    edge_cpu.resize(edges);
    edge_send.resize(edges);
    edge_recv.resize(edges);
    cloud_cpu.resize(clouds);
    cloud_send.resize(clouds);
    cloud_recv.resize(clouds);
    epoch = 1;
  }

  void clear() {
    if (++epoch == 0) {
      // Epoch wrap: stamps from 2^32 rounds ago could read as current.
      // Wipe them (rare) and restart at 1.
      for (Lane* lane : {&edge_cpu, &edge_send, &edge_recv, &cloud_cpu,
                         &cloud_send, &cloud_recv}) {
        std::fill(lane->stamp.begin(), lane->stamp.end(), 0U);
      }
      epoch = 1;
    }
  }

  [[nodiscard]] bool busy(const Lane& lane, std::size_t i) const noexcept {
    return lane.stamp[i] == epoch;
  }
  [[nodiscard]] JobId owner_of(const Lane& lane,
                               std::size_t i) const noexcept {
    return lane.stamp[i] == epoch ? lane.owner[i] : -1;
  }
  void claim(Lane& lane, std::size_t i, JobId id) noexcept {
    lane.owner[i] = id;
    lane.stamp[i] = epoch;
  }
};

/// One wake-up of the fault timeline: a crash start, a crash repair
/// (recovery), or a message-loss instant.
struct FaultWake {
  Time time = 0.0;
  std::size_t spec = 0;  ///< index into the plan
  bool recovery = false;
};

class EngineCore {
 public:
  EngineCore() = default;
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  /// Binds the core to one run and resets every piece of run state (buffer
  /// capacity survives). Jobs arrive from `stream`, or, when it is null,
  /// from a replay of `instance.jobs` in (release, id) order that the core
  /// owns; `instance` supplies the platform and outage calendar either way.
  /// Completed jobs retire, so per-job state is O(peak_live). The caller is
  /// responsible for policy.reset() — simulate() and BatchEngine both call
  /// it immediately before prepare(), preserving the historical order.
  void prepare(const Instance& instance, ArrivalStream* stream,
               Policy& policy, const EngineConfig& config);

  /// Runs at most `rounds` decision rounds (0 = unbounded); returns done().
  /// Chunked stepping is what lets a batch driver interleave worlds.
  bool step_rounds(std::uint64_t rounds);

  [[nodiscard]] bool done() const noexcept {
    return !prepared_ || (remaining_jobs_ <= 0 && !pending_.has_value());
  }

  /// Harvests the run into `out` (reusing its buffer capacity where
  /// possible) and emits the end-of-run observability records. Call once,
  /// after done().
  void finish_into(SimResult& out);

  /// Convenience: steps to completion and returns the harvested result.
  SimResult run();

  /// Decision rounds skipped via the policy's ElisionContract this run.
  /// Diagnostic only (tests assert elision actually engages); deliberately
  /// not part of SimStats — elided and non-elided runs must stay
  /// bit-identical in every reported result.
  [[nodiscard]] std::uint64_t elided_rounds() const noexcept {
    return elided_rounds_;
  }

 private:
  void init();
  void advance_stream();
  [[nodiscard]] Time next_activity_end() const;
  void fire_releases();
  void admit(const Job& job);
  std::int32_t acquire_slot(const Job& job);
  bool admission_allows(const Job& job);
  [[nodiscard]] double stretch_lower_bound(std::int32_t slot) const;
  [[nodiscard]] bool sheddable(std::int32_t slot) const;
  void shed_infeasible(double limit);
  bool shed_most_hopeless();
  void reject(const Job& job);
  void shed(std::int32_t slot, ReasonCode reason);
  void retire_slot(std::int32_t slot);
  void flush_retired();
  void trace_close_span(std::int32_t slot);
  void trace_instant(obs::TracePoint point, std::int32_t slot, int cloud,
                     double value);
  void trace_directive(std::int32_t slot, int source, int target,
                       const Directive& d);
  void trace_keep_directive(std::int32_t slot, const Directive& d);
  void trace_counter(obs::TracePoint point, double value);
  void step();
  void decide_and_activate();
  void sample_counters(std::uint64_t waiting);
  void resolve_directives();
  void apply_directive(const Directive& d, std::int32_t slot);
  void note_preemption(std::int32_t slot);
  void try_activate(std::int32_t slot);
  [[nodiscard]] Time activity_end(std::int32_t slot) const;
  void advance_to_next_event();
  [[nodiscard]] std::string describe_live_jobs() const;
  void fire_faults();
  void abort_jobs_on_cloud(CloudId crashed);
  void corrupt_in_flight_message(const FaultSpec& spec);
  void push_fault_event(const Event& event);

  const Instance* instance_ = nullptr;
  const Platform* platform_ = nullptr;
  Policy* policy_ = nullptr;
  EngineConfig config_;
  BusyMap busy_;
  /// The run's one arrival source: the caller's stream or replay_.
  ArrivalStream* stream_ = nullptr;
  InstanceArrivalStream replay_;  ///< instance.jobs, re-bound per run
  bool prepared_ = false;
  bool record_schedule_ = true;  ///< cached config flag; gates the recorders

  soa::StatePool pool_;  ///< SoA per-slot state; policies read it directly
  std::vector<ActivityRecorder> recorders_;
  std::vector<std::pair<JobId, RunRecord>> abandoned_runs_;
  std::vector<Time> boundaries_;  ///< sorted outage begin/end wake-ups
  std::size_t next_boundary_ = 0;
  std::vector<FaultWake> wakes_;  ///< sorted fault-timeline wake-ups
  std::size_t next_wake_ = 0;
  std::vector<char> cloud_down_;  ///< crashed-and-not-yet-repaired flags
  std::vector<Event> fault_log_;  ///< realized kFault/kRecovery trace
  int remaining_jobs_ = 0;
  Time now_ = 0.0;
  std::vector<Event> events_;
  SimStats stats_;

  // --- active-set core: everything the per-event hot path touches ---
  /// Slots of jobs mid-activity, in grant order.
  std::vector<std::int32_t> active_ids_;
  std::vector<std::int32_t> fired_;  ///< scratch: slots whose activity ended
  soa::LiveIndex live_;  ///< live ids ascending, slots beside them
  std::vector<std::uint32_t> seen_round_;     ///< round stamp per slot
  std::uint32_t round_ = 0;

  // --- no-op round elision (ElisionContract, see sim/policy.hpp) ---
  /// Cached contract; triggers always include kFault/kRecovery.
  ElisionContract elide_;
  bool decided_once_ = false;    ///< directives_ holds a real decide() output
  /// Live membership changed since the last real decide() — admissions,
  /// sheds and completions all set it; kReuse elision requires it clear.
  bool membership_changed_ = true;
  std::uint64_t elided_rounds_ = 0;

  // --- arrivals and retirement ---
  std::optional<Job> pending_;       ///< next arrival, not yet released
  Time last_arrival_ = -kTimeInfinity;
  JobId next_id_ = 0;                ///< one past the largest released id
  soa::IdMap id_map_;                ///< id -> slot for tracked ids
  std::uint64_t peak_tracked_ = 0;   ///< id_map_ high-water mark
  std::vector<std::int32_t> free_slots_;    ///< recycled state slots
  std::vector<std::int32_t> retire_queue_;  ///< completed, one round grace
  std::vector<std::pair<JobId, Time>> completion_log_;
  std::vector<std::pair<JobId, RunRecord>> final_runs_;

  // --- admission control ---
  bool admission_on_ = false;
  std::vector<AdmissionRecord> admission_log_;

  // --- progress watchdog ---
  /// A run aborts when more than max(kStallFloor, 512 * live) events fire
  /// without a job completing: a thrashing policy (endless re-executions)
  /// becomes a diagnosable error instead of a hang, and the cap stays
  /// meaningful for an unbounded stream.
  static constexpr std::uint64_t kStallFloor = 100'000;
  std::uint64_t events_since_completion_ = 0;

  // Scratch buffers reused across decision rounds.
  /// One arbitration entry: priority, then id, break the order; the slot
  /// rides along so activation needs no id lookup.
  struct Ranked {
    double priority;
    JobId id;
    std::int32_t slot;
  };
  std::vector<Ranked> order_;
  std::vector<Directive> directives_;  ///< policy output, reused per round
  /// Slot of each directive's job (negative: no state), resolved once per
  /// decide(); an elided kReuse round re-applies both buffers unchanged.
  std::vector<std::int32_t> directive_slots_;

  // --- observability (null sinks = everything below stays idle) ---
  obs::TraceSink* trace_ = nullptr;
  /// Written once, by finish_into(); the two sketches below are the run's
  /// private share of its job.* distributions, fed only when it is set.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::QuantileSketch stretch_;     ///< stretch, at completion
  obs::QuantileSketch queue_wait_;  ///< release to first activation
  /// Self-profiler (obs/profiler.hpp): lap hooks at every phase boundary
  /// of step(). Null costs one predicted branch per boundary.
  obs::EngineProfiler* profiler_ = nullptr;
  obs::HeartbeatMonitor* heartbeat_ = nullptr;  ///< ticked once per round
  obs::TeeTraceSink tee_;  ///< user sink + watchdog, when both are set
  /// Cached trace_->wants_samples(): gates the per-round kDecision instant
  /// and the counter samples, which sinks like the watchdog never read.
  bool trace_samples_ = false;
  bool provenance_on_ = false;
  /// Sentinel for "no directive emitted yet" in last_dir_target_ (any
  /// value no allocation can take).
  static constexpr int kDirectiveNone = std::numeric_limits<int>::min();
  std::vector<int> last_dir_target_;  ///< keep-dedup state (provenance only)
  std::vector<int> last_dir_reason_;

  /// Open trace span per job. Tracked separately from ActivityRecorder
  /// because recorder intervals close and reopen on every decision round,
  /// while a trace span runs until a true boundary: completion, preemption,
  /// reassignment, fault abort, or message loss.
  struct SpanState {
    Activity activity = Activity::kNone;
    int alloc = kAllocUnassigned;
    Time begin = 0.0;
  };
  std::vector<SpanState> spans_;  ///< sized only when tracing
  std::vector<int> run_index_;    ///< bumped per reassignment / fault abort
  std::vector<char> started_;     ///< first activation already observed
  std::uint64_t granted_ = 0;     ///< resources granted this decision round
};

}  // namespace detail
}  // namespace ecs
