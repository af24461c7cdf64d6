// arrivals.hpp - Job arrivals for the engine.
//
// The engine reads every run's jobs from an ArrivalStream: simulate_stream
// (engine.hpp) from the caller's stream, simulate() from a replay of the
// instance's job list (InstanceArrivalStream). A job becomes visible to the
// policy at its release date and not before, and completed jobs retire, so
// a run's memory footprint is a function of the number of *live* jobs,
// never of the total job count. The interface lives in sim/ (the engine's
// layer); the deterministic seeded arrival families — Poisson, diurnal
// NHPP, bursty MMPP, heavy-tailed Pareto, trace-file-driven — live in
// workloads/arrivals.hpp on top of it.
//
// Stream contract (enforced by the engine where cheap):
//  * next() returns jobs with non-decreasing release dates; ties are
//    consumed in emission order;
//  * job ids are unique and non-negative; the synthetic families emit
//    sequential ids 0, 1, 2, ... (the result vectors are indexed by id, so
//    their length is one past the largest id);
//  * next() after exhaustion keeps returning nullopt;
//  * streams are deterministic: same construction, same sequence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.hpp"

namespace ecs {

/// Produces the job sequence of one streaming simulation.
class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Next job in release order, or nullopt when the stream is exhausted.
  [[nodiscard]] virtual std::optional<Job> next() = 0;

  /// Jobs not yet emitted by next(); -1 when unknown (e.g. a stream read
  /// incrementally from disk). Used only for trace metadata.
  [[nodiscard]] virtual std::int64_t remaining() const { return -1; }
};

/// Replays a materialized Instance's job list as a stream: emits the jobs
/// sorted by (release, id), ids untouched. simulate() runs every instance
/// through one of these, so simulate_stream() over it is the same run.
class InstanceArrivalStream final : public ArrivalStream {
 public:
  InstanceArrivalStream() = default;
  /// `instance` is not owned and must outlive the stream.
  explicit InstanceArrivalStream(const Instance& instance) { bind(instance); }

  /// Re-targets the stream at `instance` and rewinds it. The order buffer
  /// keeps its capacity, so re-binding a warmed stream allocates nothing.
  void bind(const Instance& instance);

  [[nodiscard]] std::string name() const override { return "instance"; }
  [[nodiscard]] std::optional<Job> next() override;
  [[nodiscard]] std::int64_t remaining() const override {
    return static_cast<std::int64_t>(order_.size() - pos_);
  }

 private:
  const Instance* instance_ = nullptr;
  std::vector<JobId> order_;  ///< indices into instance_->jobs, release order
  std::size_t pos_ = 0;
};

}  // namespace ecs
