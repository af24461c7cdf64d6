// heartbeat.hpp - Rate-limited progress reporting for long runs.
//
// A ten-minute overload soak is silent until it finishes; the heartbeat
// gives it a pulse. The engine ticks the monitor (EngineConfig::heartbeat)
// once per decision round with the sim clock, event count, live-set size
// and refusal count ("is the run draining or drowning?"), and the monitor
// emits a one-line summary at most once per interval. The tick subsamples:
// it reads the wall clock only every kCheckEvery calls, so the per-round
// cost is one relaxed counter increment.
//
// Output goes to STDERR — never stdout, so `bench --json-out=- | jq` style
// pipelines stay clean (a test pins this).
//
// Thread-safety: tick() and flush() are safe from any thread; emission is
// serialized by a mutex that only the subsampled path touches.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

namespace ecs::obs {

class HeartbeatMonitor {
 public:
  /// Emits at most one line per `interval_seconds` to stderr (<= 0 emits
  /// on every rate-limit check — useful for tests and "show everything"
  /// runs).
  explicit HeartbeatMonitor(double interval_seconds);

  /// Engine hook, called once per decision round. Meant for ONE engine at
  /// a time (a streaming run): concurrent engines sharing a monitor would
  /// interleave their counts in one line.
  void tick(double sim_time, std::uint64_t events, std::uint64_t live,
            std::uint64_t refused);

  /// Forces a beat now, regardless of the interval (end-of-run summary).
  void flush();

  /// Beats emitted so far.
  [[nodiscard]] std::uint64_t beats() const noexcept {
    return beats_.load(std::memory_order_relaxed);
  }

 private:
  /// tick() reads the wall clock once per kCheckEvery calls; at the
  /// engine's per-round cost this keeps the disabled-path overhead of an
  /// attached monitor below 0.1%.
  static constexpr std::uint64_t kCheckEvery = 256;

  void maybe_emit(bool force);

  double interval_;
  std::chrono::steady_clock::time_point start_;

  std::atomic<std::uint64_t> calls_{0};
  std::atomic<double> sim_time_{0.0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> beats_{0};

  std::mutex emit_mutex_;  ///< guards the fields below + stderr writes
  std::chrono::steady_clock::time_point last_emit_;
  std::uint64_t last_events_ = 0;
};

}  // namespace ecs::obs
