// metrics.hpp - A process-local metrics registry: counters, gauges,
// fixed-bucket histograms and phase timers.
//
// The registry is the aggregate companion of the trace stream (trace.hpp):
// where a trace answers "what happened when", the registry answers "how
// much, in total" — total preemptions, the stretch distribution, and (via
// ProfileReport::to_metrics, obs/profiler.hpp) how long the engine spent
// inside the policy versus arbitration.
//
// Concurrency contract: instrument *registration* (counter()/gauge()/...)
// takes a mutex and should happen at setup time; *updates* (add, observe,
// gauge_set, add_nanos) are lock-free relaxed atomics, so one registry can
// be shared by every run of a multi-threaded sweep and accumulates totals
// across runs. Snapshots taken while writers are active are approximate.
// The exception is the sketch family (quantile sketches are bucket maps,
// not single words): sketch_observe/sketch_merge take a per-sketch mutex.
// Sweeps that care about the hot path keep a private QuantileSketch per
// worker and merge once at the end (obs/sketch.hpp; merging is exact).
//
// Like tracing, metrics are opt-in: the engine holds a nullable
// MetricsRegistry* and skips all bookkeeping when it is null. The engine
// itself reads no clock for the registry; its phase timers come from the
// profiler's one tick source.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sketch.hpp"

namespace ecs::obs {

struct HistogramSnapshot {
  /// Inclusive upper bounds of the finite buckets, strictly increasing.
  std::vector<double> bounds;
  /// counts[i] = observations v with bounds[i-1] < v <= bounds[i]; the
  /// final entry is the overflow bucket (> bounds.back()).
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;  ///< total observations
  double sum = 0.0;         ///< sum of observed values
};

struct TimerSnapshot {
  double seconds = 0.0;     ///< accumulated wall time
  std::uint64_t count = 0;  ///< number of timed scopes
};

struct GaugeSnapshot {
  double last = 0.0;  ///< most recently set value
  double max = 0.0;   ///< maximum over all set values (0 when never set)
};

class MetricsRegistry {
 public:
  /// Instrument handle; each instrument family has its own id space.
  using Id = int;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (get-or-create by name; thread-safe, not hot-path) ---
  [[nodiscard]] Id counter(const std::string& name);
  [[nodiscard]] Id gauge(const std::string& name);
  [[nodiscard]] Id timer(const std::string& name);
  /// `bounds` are the inclusive upper bounds of the finite buckets and must
  /// be non-empty and strictly increasing. Re-registering an existing
  /// histogram returns it (the bounds argument is then ignored).
  [[nodiscard]] Id histogram(const std::string& name,
                             std::vector<double> bounds);
  /// Quantile sketch with relative accuracy `alpha` (obs/sketch.hpp).
  /// Re-registering an existing sketch returns it (alpha then ignored).
  [[nodiscard]] Id sketch(const std::string& name,
                          double alpha = QuantileSketch::kDefaultAlpha);

  // --- updates (lock-free, safe from any thread) ---
  void add(Id id, std::uint64_t delta = 1) noexcept;
  void gauge_set(Id id, double value) noexcept;  ///< updates last and max
  void observe(Id id, double value) noexcept;
  void add_nanos(Id id, std::uint64_t nanos) noexcept;

  // --- sketch updates (per-sketch mutex, safe from any thread) ---
  void sketch_observe(Id id, double value);
  /// Folds a privately accumulated sketch in (exact; see sketch.hpp).
  void sketch_merge(Id id, const QuantileSketch& other);

  // --- snapshots (by name; throw std::out_of_range on unknown names) ---
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] GaugeSnapshot gauge_value(const std::string& name) const;
  [[nodiscard]] TimerSnapshot timer_value(const std::string& name) const;
  [[nodiscard]] HistogramSnapshot histogram_value(
      const std::string& name) const;
  /// Copy of the named sketch (itself mergeable into other sketches).
  [[nodiscard]] QuantileSketch sketch_value(const std::string& name) const;

  /// Full JSON dump:
  ///   {"counters":{name:value,...},
  ///    "gauges":{name:{"last":..,"max":..},...},
  ///    "timers":{name:{"seconds":..,"count":..},...},
  ///    "histograms":{name:{"bounds":[..],"counts":[..],
  ///                        "sum":..,"count":..},...},
  ///    "sketches":{name:{"alpha":..,"count":..,"sum":..,"min":..,
  ///                      "max":..,"p50":..,"p90":..,"p99":..,
  ///                      "p999":..},...}}
  void write_json(std::ostream& out) const;

  /// Prometheus text exposition (version 0.0.4): counters as `counter`,
  /// gauges as two `gauge` series (_last/_max), timers as
  /// `<name>_seconds_total` + `<name>_count`, histograms as cumulative
  /// `histogram` series with `le` labels, sketches as `summary` series
  /// with `quantile` labels (p50/p90/p99/p99.9) plus _sum/_count/_min/_max.
  /// Names are sanitized to the Prometheus charset ([a-zA-Z0-9_:]).
  void write_prometheus(std::ostream& out) const;

 private:
  struct Counter {
    std::atomic<std::uint64_t> value{0};
  };
  struct Gauge {
    std::atomic<double> last{0.0};
    std::atomic<double> max{0.0};
  };
  struct Timer {
    std::atomic<std::uint64_t> nanos{0};
    std::atomic<std::uint64_t> count{0};
  };
  struct Histogram {
    explicit Histogram(std::vector<double> upper)
        : bounds(std::move(upper)), counts(bounds.size() + 1) {}
    std::vector<double> bounds;
    std::vector<std::atomic<std::uint64_t>> counts;  ///< + overflow bucket
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  struct Sketch {
    explicit Sketch(double alpha) : sketch(alpha) {}
    mutable std::mutex mutex;
    QuantileSketch sketch;
  };

  // Instruments live in deques so update paths can hold plain ids: deques
  // never relocate existing elements on growth.
  mutable std::mutex mutex_;  ///< guards the name maps and deque growth
  std::map<std::string, Id> counter_ids_, gauge_ids_, timer_ids_, hist_ids_,
      sketch_ids_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Timer> timers_;
  std::deque<Histogram> histograms_;
  std::deque<Sketch> sketches_;
};

}  // namespace ecs::obs
