// workloads.hpp - The benchmark's named workloads.
//
// Every workload is a fixed set of simulated "worlds" (instance, policy,
// engine configuration) drawn from the benchmark seed. It runs them three
// ways:
//
//  * timed_round()    - every world once, one at a time on one thread, the
//                       way the workload's user runs them (a one-thread
//                       BatchEngine, simulate() or simulate_stream), nothing
//                       of the benchmark's own attached, each world timed
//                       from instance generation to its folded metrics;
//  * parallel_round() - sweep workloads only: the same worlds through
//                       run_sweep_point on several threads, for the batch
//                       driver's parallel efficiency;
//  * replay(null)     - the same worlds one at a time, bare: clean per-world
//                       service times;
//  * replay(&log)     - the same worlds one at a time through the forwarding
//                       wrappers of probes.hpp plus an EngineProfiler: the
//                       per-layer spans.
//
// All of them must produce the same digest; a mismatch is a failed world.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "probes.hpp"

namespace perfbench {

/// Thrown at the first timed world when only the set-up time is wanted.
struct SetupReached {};

/// Records when the first timed world starts (the end of set-up).
class FirstWorld {
 public:
  explicit FirstWorld(bool stop_there) : stop_there_(stop_there) {}
  /// Called at the start of every timed world; thread-safe.
  void stamp();
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  bool stop_there_;
  std::atomic<bool> stamped_{false};
  double seconds_ = 0.0;  ///< steady_clock seconds at the first stamp
};

/// Simulated outcome of a set of worlds: deterministic for a seed.
struct SimSummary {
  double max_stretch = 0.0;  ///< mean over worlds of each world's max
  double stretch_p99 = 0.0;  ///< p99 per-job stretch over all worlds
  double served_fraction = 0.0;  ///< completed jobs / arrivals
};

/// What one pass over the workload's worlds produced.
struct Pass {
  double wall_s = 0.0;  ///< host time of the whole pass (timed rounds)
  /// Sum of world service (engine prepare-to-finish) times; measured only
  /// where worlds run one at a time.
  double service_s = 0.0;
  /// Wall time of every world in run order, from instance generation to its
  /// folded metrics (serial passes only).
  std::vector<double> world_s;
  /// gauge_seconds() before every world and after the last one (timed
  /// rounds only).
  std::vector<double> gauge_s;
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;  ///< SimStats::decisions (elided included)
  std::uint64_t reassignments = 0;
  std::uint64_t jobs = 0;  ///< admitted jobs over all worlds
  std::uint64_t peak_live = 0;
  std::uint64_t worlds = 0;
  std::uint64_t watchdog_records = 0;
  /// Digest every pass of the workload can compute: over the sweep
  /// aggregates for sweep workloads, else over the worlds.
  std::string digest;
  /// Completions and stats of every world (serial passes only).
  std::string world_digest;
  SimSummary sim;
  ecs::obs::ProfileReport profile;  ///< traced replays only
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Every world once, serially, the way the workload's user runs them.
  [[nodiscard]] virtual Pass timed_round() = 0;
  /// Every world once on threads() threads (sweeps: run_sweep_point).
  [[nodiscard]] virtual Pass parallel_round() { return timed_round(); }
  /// Serial replay of the same worlds; traced when `log` is non-null.
  [[nodiscard]] virtual Pass replay(SpanLog* log) = 0;
  /// Worlds per round (failure accounting).
  [[nodiscard]] virtual std::uint64_t world_count() const = 0;
  /// Threads the parallel round runs on.
  [[nodiscard]] virtual unsigned threads() const { return 1; }
  /// Whether the timed round attaches the library's observers.
  [[nodiscard]] virtual bool observed() const { return false; }
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      FirstWorld& first);

}  // namespace perfbench
