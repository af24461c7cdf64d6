// batch.hpp - Many-worlds batch driver over the reusable engine core.
//
// A "world" is one complete simulation run: an instance, a policy and an
// engine configuration. BatchEngine owns a fixed set of resident world
// slots per worker thread; each slot keeps an EngineCore, an Instance
// buffer and a SimResult buffer alive across runs, so a completed world is
// recycled for the next queued run with zero steady-state allocations —
// the cost structure a 1000-replication sweep point (exp/sweep.hpp) wants.
//
// run() starts its own workers: worker 0 runs on the calling thread and
// `threads - 1` std::threads join it, all joined before run() returns (one
// worker starts no thread). Each worker steps its resident worlds
// round-robin in bounded chunks of decision rounds
// (BatchOptions::rounds_per_visit), pulling the next queued world from a
// shared counter whenever a slot drains. The first failure stops every
// worker at its next slot visit, so no queued world starts after it and
// run() rethrows that failure. Stepping is
// chunked purely for slot recycling and progress interleaving: a world's
// result depends only on its (instance, policy, config) triple, never on
// chunk size or scheduling, so a batched run is bit-identical to
// simulate() on the same triple (tests/test_engine_equivalence.cpp pins
// this, and the reuse contract, exactly).
//
// Results are handed to a caller callback on the worker thread, with the
// world's instance still alive — callers compute metrics or validate
// there, then the slot is recycled. Callbacks run concurrently for
// distinct worlds; callers write into pre-sized per-world output slots
// (like exp/sweep.cpp does) to stay deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/platform.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace ecs {

class Policy;

struct BatchOptions {
  /// Worker threads; 0 = default_thread_count().
  unsigned threads = 0;
  /// Resident world slots per worker. More slots smooth out run-length
  /// imbalance between queued worlds at the cost of memory; 1 degrades to
  /// run-to-completion per world.
  std::uint32_t worlds_per_thread = 2;
  /// Decision rounds a world advances per visit before the worker moves to
  /// its next resident slot. Never affects results.
  std::uint64_t rounds_per_visit = 512;
  /// Attach an EngineProfiler (obs/profiler.hpp) to every run. Profilers
  /// are single-threaded, so the driver owns one per resident world slot —
  /// the slot's runs accumulate into it and BatchEngine::profile_report()
  /// merges the slots after run() (exact sketch merge, like the sweep
  /// shards). Overrides any EngineConfig::profiler the WorldFn set: a
  /// caller-shared profiler would race across concurrently stepped worlds.
  /// Never affects results (the profiled engine is bit-identical).
  bool profile = false;
};

/// What a queued world runs. `policy` indexes the policy table the driver
/// builds per resident world slot via its PolicyFactory.
struct WorldSetup {
  std::size_t policy = 0;
  EngineConfig config;
};

/// Fills world `index`: assign the instance into the resident buffer (its
/// capacity is reused across runs) and describe the run in `setup`.
/// Called on a worker thread; must be thread-safe for distinct indices.
using WorldFn =
    std::function<void(std::size_t index, Instance& instance,
                       WorldSetup& setup)>;

/// Consumes a finished world on the worker thread, before its slot is
/// recycled: `instance` is the world's instance, `result` the harvested
/// run (callers may move from it), `wall_seconds` the world's service
/// time: the wall time of its own prepare, stepping and finish, without the
/// rounds its worker stepped for other resident worlds in between. Must be
/// thread-safe for distinct indices.
using WorldResultFn =
    std::function<void(std::size_t index, const Instance& instance,
                       SimResult& result, double wall_seconds)>;

/// Builds policy-table entry `policy` for one resident world slot. Each
/// slot owns a private table (policies are single-threaded AND stateful
/// across decide() calls, so concurrently-stepped worlds can never share
/// one), constructed lazily and reused across every run the slot executes
/// — reset() is called before each run, per the Policy contract.
using PolicyFactory =
    std::function<std::unique_ptr<Policy>(std::size_t policy)>;

class BatchEngine {
 public:
  BatchEngine(std::size_t policy_count, PolicyFactory factory,
              BatchOptions options = {});
  ~BatchEngine();
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Runs worlds [0, world_count): every world is built with `make_world`,
  /// simulated to completion and handed to `on_result`. Returns when all
  /// worlds finished. The first exception (from `make_world`, an engine
  /// error, or `on_result`) stops every worker before it claims another
  /// world or steps another round, and is rethrown once all workers have
  /// joined. Worker state (cores, policy tables, buffers) persists across
  /// run() calls, so repeated sweep points keep their capacity.
  void run(std::size_t world_count, const WorldFn& make_world,
           const WorldResultFn& on_result);

  /// Merged profile of every world executed so far (BatchOptions::profile
  /// must be on; empty otherwise). Phase totals and diagnostics add across
  /// worlds, the per-policy decision sketches merge exactly, so the report
  /// reads as one aggregate engine. Call between run()s, never during one.
  [[nodiscard]] obs::ProfileReport profile_report() const;

 private:
  struct Worker;
  struct Queue;

  void run_worker(Worker& worker, Queue& queue, const WorldFn& make_world,
                  const WorldResultFn& on_result);

  std::size_t policy_count_;
  PolicyFactory factory_;
  BatchOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace ecs
