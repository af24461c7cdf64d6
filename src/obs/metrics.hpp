// metrics.hpp - A process-local metrics registry: counters, high-water
// gauges and quantile sketches.
//
// The registry is the aggregate companion of the trace stream (trace.hpp):
// where a trace answers "what happened when", the registry answers "how
// much, in total" — total preemptions, the stretch distribution, and (via
// ProfileReport::to_metrics, obs/profiler.hpp) how long the engine spent
// inside the policy versus arbitration.
//
// Concurrency contract: instrument *registration* (counter()/gauge()/
// sketch()) takes a mutex; counter and gauge updates (add, gauge_max) are
// lock-free relaxed atomics, and sketch updates take a per-sketch mutex
// (a sketch is a bucket map, not a single word). So one registry can be
// shared by every run of a multi-threaded sweep and accumulates totals
// across runs. Every family accumulates independently of update order —
// counters add, gauges keep their maximum, sketches add bucket counts
// (obs/sketch.hpp) — so the totals do not depend on which world finished
// first (a sketch's floating-point `sum` aside). Hot paths keep a private
// QuantileSketch and merge it once at the end, which is exact; the engine
// does that once per run. Snapshots taken while writers are active are
// approximate.
//
// Like tracing, metrics are opt-in: the engine holds a nullable
// MetricsRegistry* and skips all bookkeeping when it is null. The engine
// itself reads no clock for the registry; its phase times come from the
// profiler's one tick source.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>

#include "obs/sketch.hpp"

namespace ecs::obs {

class MetricsRegistry {
 public:
  /// Instrument handle; each instrument family has its own id space.
  using Id = int;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (get-or-create by name; thread-safe, not hot-path) ---
  [[nodiscard]] Id counter(const std::string& name);
  /// A high-water gauge: it holds the maximum value it was raised to.
  [[nodiscard]] Id gauge(const std::string& name);
  /// Quantile sketch with relative accuracy `alpha` (obs/sketch.hpp).
  /// Re-registering an existing sketch returns it (alpha then ignored).
  [[nodiscard]] Id sketch(const std::string& name,
                          double alpha = QuantileSketch::kDefaultAlpha);

  // --- updates (lock-free, safe from any thread) ---
  void add(Id id, std::uint64_t delta = 1) noexcept;
  /// Raises the gauge to `value` if that exceeds its current maximum.
  void gauge_max(Id id, double value) noexcept;

  // --- sketch updates (per-sketch mutex, safe from any thread) ---
  void sketch_observe(Id id, double value);
  /// Folds a privately accumulated sketch in (exact; see sketch.hpp).
  void sketch_merge(Id id, const QuantileSketch& other);

  // --- snapshots (by name; throw std::out_of_range on unknown names) ---
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  /// The gauge's maximum (0 when never raised above 0).
  [[nodiscard]] double gauge_value(const std::string& name) const;
  /// Copy of the named sketch (itself mergeable into other sketches).
  [[nodiscard]] QuantileSketch sketch_value(const std::string& name) const;

  /// Full JSON dump:
  ///   {"counters":{name:value,...},
  ///    "gauges":{name:max,...},
  ///    "sketches":{name:{"alpha":..,"count":..,"sum":..,"min":..,
  ///                      "max":..,"p50":..,"p90":..,"p99":..,
  ///                      "p999":..},...}}
  void write_json(std::ostream& out) const;

  /// Prometheus text exposition (version 0.0.4): counters as `counter`,
  /// gauges as one `gauge` series each, sketches as `summary` series with
  /// `quantile` labels (p50/p90/p99/p99.9) plus _sum/_count/_min/_max.
  /// Names are sanitized to the Prometheus charset ([a-zA-Z0-9_:]).
  void write_prometheus(std::ostream& out) const;

 private:
  struct Counter {
    std::atomic<std::uint64_t> value{0};
  };
  struct Gauge {
    std::atomic<double> max{0.0};
  };
  struct Sketch {
    explicit Sketch(double alpha) : sketch(alpha) {}
    mutable std::mutex mutex;
    QuantileSketch sketch;
  };

  // Instruments live in deques so update paths can hold plain ids: deques
  // never relocate existing elements on growth.
  mutable std::mutex mutex_;  ///< guards the name maps and deque growth
  std::map<std::string, Id> counter_ids_, gauge_ids_, sketch_ids_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Sketch> sketches_;
};

}  // namespace ecs::obs
