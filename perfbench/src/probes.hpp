// probes.hpp - The benchmark's own instrumentation: forwarding wrappers that
// time calls into the library's public functions from the outside, the
// per-world span record they fill, and the result digests that prove two
// passes computed the same schedules.
//
// Nothing here reaches into the library: a wrapped run differs from a bare
// one only by the clock reads around each forwarded call
// (tests/test_probes.cpp pins that wrapped and bare runs are identical).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "obs/sketch.hpp"
#include "obs/trace.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One world of a traced replay: the root span and the folded child spans
/// (instance generation, every decide() call, validation, metrics).
struct WorldSpan {
  std::size_t world = 0;
  std::string policy;
  std::int64_t begin_ns = 0;  ///< root span start (instance generation)
  std::int64_t end_ns = 0;    ///< root span end (after metrics)
  double service_ns = 0.0;    ///< engine prepare-to-finish wall time
  double instance_gen_ns = 0.0;
  double decide_ns = 0.0;
  std::uint64_t decide_calls = 0;
  std::uint64_t live_sum = 0;  ///< live-set size summed over decide calls
  double arrival_ns = 0.0;
  std::uint64_t arrival_calls = 0;
  double validate_ns = 0.0;
  double metrics_ns = 0.0;
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;  ///< SimStats::decisions (elided included)
};

/// In-memory span store of one traced replay. Single-threaded: the traced
/// replay runs its worlds one at a time, so the wrappers write into the
/// currently open world.
class SpanLog {
 public:
  /// Opens world `index`'s root span.
  WorldSpan& open(std::size_t index, const std::string& policy);
  [[nodiscard]] WorldSpan& current() { return worlds_.back(); }
  /// Closes the open world's root span.
  void close() { worlds_.back().end_ns = now_ns(); }

  void on_decide(double ns, std::size_t live);
  void on_arrival(double ns) {
    WorldSpan& w = current();
    w.arrival_ns += ns;
    ++w.arrival_calls;
  }

  [[nodiscard]] const std::vector<WorldSpan>& worlds() const {
    return worlds_;
  }
  [[nodiscard]] const ecs::obs::QuantileSketch& decide_sketch() const {
    return decide_sketch_;
  }

  /// Writes every span as JSON lines: one root span per world followed by
  /// its child spans (decide calls folded into one summed child).
  void write_jsonl(const std::string& path, const std::string& workload) const;

 private:
  std::vector<WorldSpan> worlds_;
  ecs::obs::QuantileSketch decide_sketch_;  ///< per-call decide latency, ns
};

/// Forwards name, reset, elision and decide to a base policy and times
/// every decide() call into a SpanLog. Forwarding elision() matters: a
/// wrapper that dropped it would make the engine call decide() on rounds
/// the bare policy lets it skip.
class TimedPolicy final : public ecs::Policy {
 public:
  TimedPolicy(std::unique_ptr<ecs::Policy> base, SpanLog& log)
      : base_(std::move(base)), log_(&log) {}

  [[nodiscard]] std::string name() const override { return base_->name(); }
  void reset(const ecs::Instance& instance) override {
    base_->reset(instance);
  }
  [[nodiscard]] ecs::ElisionContract elision() const override {
    return base_->elision();
  }
  void decide(const ecs::SimView& view, const std::vector<ecs::Event>& events,
              std::vector<ecs::Directive>& out) override {
    const std::int64_t t0 = now_ns();
    base_->decide(view, events, out);
    log_->on_decide(static_cast<double>(now_ns() - t0),
                    view.live_jobs().size());
  }

 private:
  std::unique_ptr<ecs::Policy> base_;
  SpanLog* log_;
};

/// Forwards an arrival stream and times every next() call.
class TimedArrivals final : public ecs::ArrivalStream {
 public:
  TimedArrivals(ecs::ArrivalStream& base, SpanLog& log)
      : base_(&base), log_(&log) {}

  [[nodiscard]] std::string name() const override { return base_->name(); }
  [[nodiscard]] std::optional<ecs::Job> next() override {
    const std::int64_t t0 = now_ns();
    std::optional<ecs::Job> job = base_->next();
    log_->on_arrival(static_cast<double>(now_ns() - t0));
    return job;
  }
  [[nodiscard]] std::int64_t remaining() const override {
    return base_->remaining();
  }

 private:
  ecs::ArrivalStream* base_;
  SpanLog* log_;
};

/// Feeds every completion's realized stretch into a quantile sketch — the
/// tail of a streaming run, whose completions are not recorded.
class StretchTail final : public ecs::obs::TraceSink {
 public:
  void record(const ecs::obs::TraceRecord& rec) override;
  [[nodiscard]] const ecs::obs::QuantileSketch& sketch() const {
    return sketch_;
  }

 private:
  ecs::obs::QuantileSketch sketch_;
};

/// FNV-1a over the exact bytes of results: equal digests mean equal
/// schedules to the bit.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) { add_bytes(&v, sizeof v); }
  /// Every SimStats field except policy_seconds (wall time).
  void add(const ecs::SimStats& stats);
  /// A world: its completions and its stats.
  void add(const ecs::SimResult& result);
  /// A sweep aggregate: every accumulator and sketch field run_sweep_point
  /// fills, so the timed pass (which sees only aggregates) and a replay can
  /// be compared.
  void add(const ecs::PolicyAggregate& aggregate);

  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Folds one finished world into its policy aggregate exactly as
/// run_sweep_point does (same fields, same per-world sketch then merge), so
/// a replay in world order rebuilds bit-identical aggregates.
void fold_world(ecs::PolicyAggregate& aggregate,
                const ecs::ScheduleMetrics& metrics,
                const ecs::SimStats& stats, double wall_seconds);

}  // namespace perfbench
