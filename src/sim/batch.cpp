#include "sim/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "obs/profiler.hpp"
#include "sim/engine_core.hpp"
#include "sim/policy.hpp"
#include "util/parallel.hpp"

namespace ecs {

namespace {
constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

struct BatchEngine::Worker {
  /// One resident world slot: every buffer below survives recycling, so a
  /// steady-state world launch allocates nothing.
  struct World {
    detail::EngineCore core;
    Instance instance;
    SimResult result;
    WorldSetup setup;
    /// Lazily built policy table. Owned by the SLOT, not the worker: a
    /// policy object is stateful across decide() calls, and a worker
    /// interleaves its resident worlds mid-run — two worlds sharing one
    /// policy instance would corrupt each other the moment both pick the
    /// same table entry.
    std::vector<std::unique_ptr<Policy>> policies;
    /// Slot-owned profiler (BatchOptions::profile): single-threaded like
    /// the policies above, accumulating across every run the slot
    /// executes; profile_report() merges the slots.
    std::unique_ptr<obs::EngineProfiler> profiler;
    std::size_t index = kIdle;  ///< queued-world index, kIdle when free
    /// Service time so far: this world's own prepare, visits and finish,
    /// not the rounds stepped for the other resident worlds.
    double service_seconds = 0.0;
  };

  std::vector<std::unique_ptr<World>> worlds;
};

/// The state one run() shares across its workers: the claim counter over
/// the queued worlds and the first failure, which stops them all.
struct BatchEngine::Queue {
  std::size_t world_count = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  /// Written once, by the worker that raised `stop`; run() reads it only
  /// after every worker has joined.
  std::exception_ptr first_error;

  /// Stops every worker and keeps the exception in flight if it is the
  /// first.
  void fail() noexcept {
    if (!stop.exchange(true)) first_error = std::current_exception();
  }
};

BatchEngine::BatchEngine(std::size_t policy_count, PolicyFactory factory,
                         BatchOptions options)
    : policy_count_(policy_count),
      factory_(std::move(factory)),
      options_(options) {
  if (!factory_) {
    throw std::invalid_argument("BatchEngine: a policy factory is required");
  }
}

BatchEngine::~BatchEngine() = default;

void BatchEngine::run(std::size_t world_count, const WorldFn& make_world,
                      const WorldResultFn& on_result) {
  if (world_count == 0) return;
  const unsigned threads =
      options_.threads != 0 ? options_.threads : default_thread_count();
  const std::size_t workers =
      std::min<std::size_t>(std::max(threads, 1u), world_count);
  while (workers_.size() < workers) {
    workers_.push_back(std::make_unique<Worker>());
  }
  Queue queue;
  queue.world_count = world_count;
  const auto work = [&](std::size_t w) {
    try {
      run_worker(*workers_[w], queue, make_world, on_result);
    } catch (...) {
      queue.fail();
    }
  };
  // Worker 0 is the calling thread, so one worker starts no thread.
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work, w);
  } catch (...) {
    queue.fail();  // a thread would not start: stop the ones that did
  }
  work(0);
  for (std::thread& t : helpers) t.join();
  if (queue.first_error) std::rethrow_exception(queue.first_error);
}

void BatchEngine::run_worker(Worker& worker, Queue& queue,
                             const WorldFn& make_world,
                             const WorldResultFn& on_result) {
  const std::size_t slots =
      std::max<std::size_t>(options_.worlds_per_thread, 1);
  while (worker.worlds.size() < slots) {
    worker.worlds.push_back(std::make_unique<Worker::World>());
  }
  // A previous run() that stopped on an exception may have left worlds
  // mid-flight; their cores re-prepare from scratch, so just mark idle.
  for (auto& world : worker.worlds) {
    world->policies.resize(policy_count_);
    world->index = kIdle;
  }

  const std::uint64_t rounds = std::max<std::uint64_t>(
      options_.rounds_per_visit, 1);
  bool drained = false;  // the shared queue has run dry
  // Launches the next queued world into `world`; false when none remain.
  const auto launch = [&](Worker::World& world) {
    if (drained) return false;
    const std::size_t index =
        queue.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= queue.world_count) {
      drained = true;
      return false;
    }
    world.index = index;
    world.setup = WorldSetup{};
    make_world(index, world.instance, world.setup);
    if (options_.profile) {
      if (world.profiler == nullptr) {
        world.profiler = std::make_unique<obs::EngineProfiler>();
      }
      // The slot's profiler wins over anything make_world set: slots step
      // concurrently and a caller-shared profiler would race.
      world.setup.config.profiler = world.profiler.get();
    }
    if (world.setup.policy >= policy_count_) {
      throw std::out_of_range("BatchEngine: world setup selected policy " +
                              std::to_string(world.setup.policy) +
                              " of a table of " +
                              std::to_string(policy_count_));
    }
    std::unique_ptr<Policy>& policy = world.policies[world.setup.policy];
    if (policy == nullptr) policy = factory_(world.setup.policy);
    const auto t0 = std::chrono::steady_clock::now();
    // Same order as simulate(): reset, then prepare, then step.
    policy->reset(world.instance);
    world.core.prepare(world.instance, nullptr, *policy, world.setup.config);
    world.service_seconds = seconds_since(t0);
    return true;
  };

  while (true) {
    bool any_live = false;
    for (std::size_t s = 0; s < slots; ++s) {
      // After a failure anywhere, claim no world and step no round.
      if (queue.stop.load(std::memory_order_relaxed)) return;
      Worker::World& world = *worker.worlds[s];
      if (world.index == kIdle && !launch(world)) continue;
      any_live = true;
      const auto t0 = std::chrono::steady_clock::now();
      const bool finished = world.core.step_rounds(rounds);
      if (finished) world.core.finish_into(world.result);
      world.service_seconds += seconds_since(t0);
      if (!finished) continue;
      const std::size_t index = world.index;
      world.index = kIdle;  // recycled even if the callback throws
      on_result(index, world.instance, world.result, world.service_seconds);
    }
    if (!any_live) return;
  }
}

obs::ProfileReport BatchEngine::profile_report() const {
  obs::ProfileReport merged;
  for (const auto& worker : workers_) {
    for (const auto& world : worker->worlds) {
      if (world->profiler != nullptr) {
        merged.merge(world->profiler->report());
      }
    }
  }
  return merged;
}

}  // namespace ecs
