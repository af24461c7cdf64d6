// pool_view.hpp - A hand-built decision round for tests and micro-benchmarks.
//
// PoolView fills a StatePool with one slot per job of an instance (slot =
// id), every job released and unassigned with its full work remaining, and
// keeps the ascending live list, its slots and the id -> slot map beside
// it: the same backing the engine hands a policy. Edit per-job state
// through pool() before taking view().
#pragma once

#include <cstdint>
#include <vector>

#include "core/platform.hpp"
#include "sim/policy.hpp"
#include "sim/soa.hpp"

namespace ecs {

class PoolView {
 public:
  explicit PoolView(const Instance& instance, Time now = 0.0)
      : instance_(&instance), now_(now) {
    pool_.reset(instance.jobs.size());
    id_map_.clear();
    for (const Job& job : instance.jobs) {
      const auto s = static_cast<std::int32_t>(job.id);
      pool_.job(s) = job;
      pool_.best_time(s) = instance.platform.best_time(job);
      pool_.rem_work(s) = job.work;
      pool_.released(s) = 1;
      live_.push_back(job.id);
      slots_.push_back(s);
      id_map_.insert(job.id, s);
    }
  }

  [[nodiscard]] soa::StatePool& pool() noexcept { return pool_; }

  /// A view of the round; valid while this PoolView is neither moved nor
  /// destroyed.
  [[nodiscard]] SimView view() const {
    return SimView(*instance_, pool_, now_, live_, slots_, id_map_);
  }

 private:
  const Instance* instance_;
  Time now_;
  soa::StatePool pool_;
  std::vector<JobId> live_;
  std::vector<std::int32_t> slots_;
  soa::IdMap id_map_;
};

}  // namespace ecs
