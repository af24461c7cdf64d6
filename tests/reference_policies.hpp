// reference_policies.hpp - Frozen pre-optimization policy implementations.
//
// Ports of the online policies as they stood BEFORE the O(live)
// arbitration rewrite (fresh heap buffers every decide(), repeated
// per-job field reads, std::function-driven cold stretch search, a freshly
// constructed ResourceClock per probe). They are deliberately NOT kept in
// sync with src/sched/: their whole value is staying frozen so
// test_policy_equivalence.cpp can assert the optimized policies produce
// bit-identical schedules, and ecs_microbench's policy_decide series can
// quantify the speedup against the original cost model.
//
// Two adaptations only. The Policy entry point passes an output buffer;
// each reference decide() still builds a fresh local vector exactly like
// the original and copies it out, preserving the old allocation behavior.
// And the original scans over every job state, skipping the jobs that are
// not live, now walk view.live_slots() and read view.fields_at_slot():
// the slots come in ascending id order, which is the order the scans
// walked, so every decision is unchanged, and a job's fields are read by
// slot, as the original read its state array, without an id lookup.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "sched/common.hpp"
#include "sched/edge_only.hpp"
#include "sched/failover.hpp"
#include "sched/srpt.hpp"
#include "sched/ssf_edf.hpp"
#include "sim/projection.hpp"

namespace ecs {
namespace ref {

/// Pre-rewrite live_jobs(): a fresh vector of the live jobs' slots, in
/// ascending id order.
inline std::vector<std::int32_t> live_slots_copy(const SimView& view) {
  const std::span<const std::int32_t> live = view.live_slots();
  return std::vector<std::int32_t>(live.begin(), live.end());
}

/// Pre-rewrite doubling + bisection, std::function-driven and always cold
/// (no warm hint).
inline double min_feasible_stretch(
    double lo, double epsilon, int max_iterations,
    const std::function<bool(double)>& feasible) {
  double hi = std::max(lo, 1.0);
  int iterations = 0;
  while (!feasible(hi) && iterations < max_iterations) {
    hi *= 2.0;
    ++iterations;
  }
  double best = hi;
  double cursor = lo;
  while ((best - cursor) > epsilon * best && iterations < max_iterations) {
    const double mid = 0.5 * (cursor + best);
    if (feasible(mid)) {
      best = mid;
    } else {
      cursor = mid;
    }
    ++iterations;
  }
  return best;
}

/// Pre-rewrite best_target_sticky: one ResourceClock::project() call per
/// target (current allocation first, then the edge, then every cloud in
/// index order; a later target must be better by more than
/// kDecisionMargin). The library's fused scan must return the same pair.
inline std::pair<int, Time> best_target_per_target(const Platform& platform,
                                                   const ResourceClock& clock,
                                                   const JobFields& state) {
  int best_target = kAllocEdge;
  Time best = kTimeInfinity;
  const auto consider = [&](int target) {
    const Time done = clock.project(platform, state, target);
    if (done < best - kDecisionMargin) {
      best = done;
      best_target = target;
    }
  };
  if (state.alloc != kAllocUnassigned) {
    best_target = state.alloc;
    best = clock.project(platform, state, state.alloc);
    if (state.alloc != kAllocEdge) consider(kAllocEdge);
  } else {
    consider(kAllocEdge);
  }
  for (CloudId k = 0; k < platform.cloud_count(); ++k) {
    if (k == state.alloc) continue;
    consider(k);
  }
  return {best_target, best};
}

/// Pre-rewrite list assignment: constructs a fresh ResourceClock (full
/// lane allocation) per call and returns a fresh directive vector. Kept
/// here because the optimized src/sched variant reuses a bound clock.
inline std::vector<Directive> list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  ResourceClock clock(view.instance(), now);
  std::vector<Directive> directives;
  directives.reserve(order.size());
  double priority = 0.0;
  for (const OrderedJob& entry : order) {
    const JobFields s = view.fields_at_slot(entry.pos);
    const auto [target, done] = best_target_per_target(platform, clock, s);
    (void)done;
    const bool immediate = clock.starts_now(platform, s, target, now);
    clock.commit(platform, s, target);
    directives.push_back(
        Directive{entry.id, immediate ? target : kTargetKeep, priority});
    priority += 1.0;
  }
  return directives;
}

class FcfsPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "RefFCFS"; }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    (void)events;
    std::vector<OrderedJob> order;
    for (const std::int32_t slot : view.live_slots()) {
      const JobFields s = view.fields_at_slot(slot);
      order.push_back(OrderedJob{s.job->id, s.job->release, slot});
    }
    sort_ordered(order);
    std::vector<Directive> directives =
        ref::list_assign_directives(view, order);
    out.insert(out.end(), directives.begin(), directives.end());
  }
};

class GreedyPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "RefGreedy"; }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    (void)events;
    constexpr double kSwitchMargin = 0.10;
    const Platform& platform = view.platform();
    const Time now = view.now();

    std::vector<std::int32_t> candidates = live_slots_copy(view);
    std::vector<char> edge_free(platform.edge_count(), 1);
    std::vector<char> cloud_free(platform.cloud_count(), 1);

    std::vector<Directive> directives;
    directives.reserve(candidates.size());
    double priority = 0.0;

    while (!candidates.empty()) {
      double best_value = -1.0;
      double best_tiebreak = std::numeric_limits<double>::infinity();
      std::size_t best_pos = candidates.size();
      int best_resource = kAllocUnassigned;
      const int fresh = pick_fresh_cloud(view, cloud_free);

      for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
        const JobFields s = view.fields_at_slot(candidates[pos]);
        double min_stretch = std::numeric_limits<double>::infinity();
        int argmin = kAllocUnassigned;
        double keep_stretch = std::numeric_limits<double>::infinity();
        const auto stretch_on = [&](int target) {
          const Time done = uncontended_completion(
              view.instance(), s, target == kTargetKeep ? s.alloc : target,
              now);
          return stretch_of(platform, *s.job, done);
        };
        const auto consider = [&](int target) {
          const double stretch = stretch_on(target);
          if (stretch < min_stretch - kDecisionMargin) {
            min_stretch = stretch;
            argmin = target;
          }
        };
        int keep_target = kAllocUnassigned;
        if (s.alloc != kAllocUnassigned) {
          const bool own_free =
              s.alloc == kAllocEdge ? edge_free[s.job->origin] != 0
                                    : cloud_free[s.alloc] != 0;
          keep_target = own_free ? s.alloc : kTargetKeep;
          keep_stretch = stretch_on(keep_target);
          min_stretch = keep_stretch;
          argmin = keep_target;
        }
        if (edge_free[s.job->origin] && s.alloc != kAllocEdge) {
          consider(kAllocEdge);
        }
        if (fresh >= 0 && fresh != s.alloc) consider(fresh);
        if (argmin == kAllocUnassigned) continue;
        if (keep_target != kAllocUnassigned && argmin != keep_target &&
            min_stretch > keep_stretch * (1.0 - kSwitchMargin)) {
          argmin = keep_target;
          min_stretch = keep_stretch;
        }
        const bool wins =
            min_stretch > best_value + kDecisionMargin ||
            (min_stretch > best_value - kDecisionMargin &&
             s.best_time < best_tiebreak);
        if (wins) {
          best_value = min_stretch;
          best_tiebreak = s.best_time;
          best_pos = pos;
          best_resource = argmin;
        }
      }

      if (best_pos == candidates.size()) break;
      const Job& chosen = *view.fields_at_slot(candidates[best_pos]).job;
      directives.push_back(Directive{chosen.id, best_resource, priority});
      priority += 1.0;
      if (best_resource == kAllocEdge) {
        edge_free[chosen.origin] = 0;
      } else if (best_resource != kTargetKeep) {
        cloud_free[best_resource] = 0;
      }
      candidates.erase(candidates.begin() +
                       static_cast<std::ptrdiff_t>(best_pos));
    }
    out.insert(out.end(), directives.begin(), directives.end());
  }
};

class SrptPolicy final : public Policy {
 public:
  SrptPolicy() = default;
  explicit SrptPolicy(const SrptConfig& config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "RefSRPT"; }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    (void)events;
    const Time now = view.now();

    std::vector<std::int32_t> candidates = live_slots_copy(view);
    std::vector<char> edge_free(view.platform().edge_count(), 1);
    std::vector<char> cloud_free(view.platform().cloud_count(), 1);

    std::vector<Directive> directives;
    directives.reserve(candidates.size());
    double priority = 0.0;

    while (!candidates.empty()) {
      Time best_done = kTimeInfinity;
      std::size_t best_pos = candidates.size();
      int best_resource = kAllocUnassigned;
      const int fresh = pick_fresh_cloud(view, cloud_free);

      for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
        const JobFields s = view.fields_at_slot(candidates[pos]);
        const auto consider = [&](int target) {
          const Time done = uncontended_completion(
              view.instance(), s, target == kTargetKeep ? s.alloc : target,
              now);
          if (done < best_done - kDecisionMargin) {
            best_done = done;
            best_pos = pos;
            best_resource = target;
          }
        };
        if (s.alloc != kAllocUnassigned) {
          const bool own_free =
              s.alloc == kAllocEdge ? edge_free[s.job->origin] != 0
                                    : cloud_free[s.alloc] != 0;
          consider(own_free ? s.alloc : kTargetKeep);
        }
        const bool may_restart =
            config_.allow_reexecution || s.alloc == kAllocUnassigned;
        if (may_restart) {
          if (edge_free[s.job->origin] && s.alloc != kAllocEdge) {
            consider(kAllocEdge);
          }
          if (fresh >= 0 && fresh != s.alloc) consider(fresh);
        }
      }

      if (best_pos == candidates.size()) break;
      const Job& chosen = *view.fields_at_slot(candidates[best_pos]).job;
      directives.push_back(Directive{chosen.id, best_resource, priority});
      priority += 1.0;
      if (best_resource == kAllocEdge) {
        edge_free[chosen.origin] = 0;
      } else if (best_resource != kTargetKeep) {
        cloud_free[best_resource] = 0;
      }
      candidates.erase(candidates.begin() +
                       static_cast<std::ptrdiff_t>(best_pos));
    }
    out.insert(out.end(), directives.begin(), directives.end());
  }

 private:
  SrptConfig config_;
};

class SsfEdfPolicy final : public Policy {
 public:
  SsfEdfPolicy() = default;
  explicit SsfEdfPolicy(const SsfEdfConfig& config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "RefSSF-EDF"; }

  void reset(const Instance& instance) override {
    deadlines_.assign(instance.jobs.size(), kTimeInfinity);
  }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    if (contains_release(events)) {
      recompute_deadlines(view);
    }
    std::vector<OrderedJob> order;
    for (const std::int32_t slot : view.live_slots()) {
      const JobFields s = view.fields_at_slot(slot);
      order.push_back(OrderedJob{s.job->id, deadlines_[s.job->id], slot});
    }
    sort_ordered(order);
    std::vector<Directive> directives =
        ref::list_assign_directives(view, order);
    out.insert(out.end(), directives.begin(), directives.end());
  }

 private:
  bool feasible(const SimView& view, double stretch,
                std::vector<double>* deadlines_out) const {
    const Platform& platform = view.platform();
    const Time now = view.now();
    std::vector<OrderedJob> entries;
    for (const std::int32_t slot : view.live_slots()) {
      const JobFields s = view.fields_at_slot(slot);
      entries.push_back(OrderedJob{
          s.job->id, s.job->release + stretch * s.best_time, slot});
    }
    sort_ordered(entries);

    ResourceClock clock(view.instance(), now);
    bool ok = true;
    for (const OrderedJob& e : entries) {
      const JobFields s = view.fields_at_slot(e.pos);
      const auto [target, done] = best_target_per_target(platform, clock, s);
      clock.commit(platform, s, target);
      if (time_gt(done, e.key)) {
        ok = false;
        break;
      }
    }
    if (ok && deadlines_out != nullptr) {
      for (const OrderedJob& e : entries) (*deadlines_out)[e.id] = e.key;
    }
    return ok;
  }

  void recompute_deadlines(const SimView& view) {
    const Platform& platform = view.platform();
    const Time now = view.now();
    double lo = 1.0;
    bool any_live = false;
    for (const std::int32_t slot : view.live_slots()) {
      const JobFields s = view.fields_at_slot(slot);
      any_live = true;
      const Time best_done = best_uncontended_completion(platform, s, now);
      lo = std::max(lo, (best_done - s.job->release) / s.best_time);
    }
    if (!any_live) return;

    const double best_feasible = ref::min_feasible_stretch(
        lo, config_.epsilon, config_.max_iterations,
        [&](double s) { return feasible(view, s, nullptr); });

    const double target = config_.alpha * best_feasible;
    if (!feasible(view, target, &deadlines_)) {
      (void)feasible(view, best_feasible, &deadlines_);
    }
  }

  SsfEdfConfig config_;
  std::vector<double> deadlines_;
};

class EdgeOnlyPolicy final : public Policy {
 public:
  EdgeOnlyPolicy() = default;
  explicit EdgeOnlyPolicy(const EdgeOnlyConfig& config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "RefEdge-Only"; }

  void reset(const Instance& instance) override {
    deadlines_.assign(instance.jobs.size(), kTimeInfinity);
  }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    std::vector<char> touched(view.platform().edge_count(), 0);
    for (const Event& e : events) {
      if (e.kind == EventKind::kRelease) {
        touched[view.fields(e.job).job->origin] = 1;
      }
    }
    for (EdgeId j = 0; j < view.platform().edge_count(); ++j) {
      if (touched[j]) recompute_edge_deadlines(view, j);
    }
    for (const std::int32_t slot : view.live_slots()) {
      const JobFields s = view.fields_at_slot(slot);
      out.push_back(Directive{s.job->id, kAllocEdge, deadlines_[s.job->id]});
    }
  }

 private:
  bool feasible_on_edge(const SimView& view, EdgeId j, double stretch,
                        std::vector<double>* deadlines_out) const {
    struct Entry {
      JobId id;
      double deadline;
      double exec_time;
    };
    const Platform& platform = view.platform();
    const double speed = platform.edge_speed(j);
    std::vector<Entry> entries;
    for (const std::int32_t slot : view.live_slots()) {
      const JobFields s = view.fields_at_slot(slot);
      if (s.job->origin != j) continue;
      const double rem_work =
          (s.alloc == kAllocEdge) ? clamp_amount(s.rem_work) : s.job->work;
      entries.push_back(Entry{s.job->id,
                              s.job->release + stretch * s.best_time,
                              rem_work / speed});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.deadline != b.deadline ? a.deadline < b.deadline
                                                : a.id < b.id;
              });
    Time cursor = view.now();
    for (const Entry& e : entries) {
      cursor += e.exec_time;
      if (time_gt(cursor, e.deadline)) return false;
    }
    if (deadlines_out != nullptr) {
      for (const Entry& e : entries) (*deadlines_out)[e.id] = e.deadline;
    }
    return true;
  }

  void recompute_edge_deadlines(const SimView& view, EdgeId j) {
    const double speed = view.platform().edge_speed(j);
    double lo = 1.0;
    bool any = false;
    for (const std::int32_t slot : view.live_slots()) {
      const JobFields s = view.fields_at_slot(slot);
      if (s.job->origin != j) continue;
      any = true;
      const double rem_work =
          (s.alloc == kAllocEdge) ? clamp_amount(s.rem_work) : s.job->work;
      const Time best_done = view.now() + rem_work / speed;
      lo = std::max(lo, (best_done - s.job->release) / s.best_time);
    }
    if (!any) return;

    const double best = ref::min_feasible_stretch(
        lo, config_.epsilon, config_.max_iterations,
        [&](double s) { return feasible_on_edge(view, j, s, nullptr); });
    (void)feasible_on_edge(view, j, best, &deadlines_);
  }

  EdgeOnlyConfig config_;
  std::vector<double> deadlines_;
};

class FailoverPolicy final : public Policy {
 public:
  explicit FailoverPolicy(std::unique_ptr<Policy> base,
                          FailoverConfig config = {})
      : base_(std::move(base)), config_(config) {
    if (base_ == nullptr) {
      throw std::invalid_argument("ref::FailoverPolicy: null base policy");
    }
  }

  [[nodiscard]] std::string name() const override {
    return "RefFailover(" + base_->name() + ")";
  }

  void reset(const Instance& instance) override {
    const std::size_t pc =
        static_cast<std::size_t>(instance.platform.cloud_count());
    failures_.assign(pc, 0);
    retry_at_.assign(pc, -kTimeInfinity);
    down_.assign(pc, 0);
    base_->reset(instance);
  }

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override {
    constexpr double kEvacuationPriority = 1e15;
    const Time now = view.now();

    std::vector<char> faulted(failures_.size(), 0);
    std::vector<char> crashed(failures_.size(), 0);
    for (const Event& e : events) {
      if (e.cloud < 0 ||
          static_cast<std::size_t>(e.cloud) >= failures_.size()) {
        continue;
      }
      if (e.kind == EventKind::kFault) {
        faulted[e.cloud] = 1;
        if (e.job < 0) {
          crashed[e.cloud] = 1;
          down_[e.cloud] = 1;
        }
      } else if (e.kind == EventKind::kRecovery) {
        down_[e.cloud] = 0;
      }
    }
    for (std::size_t k = 0; k < faulted.size(); ++k) {
      if (faulted[k] == 0) continue;
      if (crashed[k] != 0) ++failures_[k];
      const double delay =
          std::min(config_.backoff_max,
                   config_.backoff_base *
                       std::pow(config_.backoff_factor,
                                std::max(failures_[k], 1) - 1));
      retry_at_[k] = std::max(retry_at_[k], now + delay);
    }

    std::vector<int> cloud_load(failures_.size(), 0);
    for (const std::int32_t slot : view.live_slots()) {
      const JobFields s = view.fields_at_slot(slot);
      if (is_cloud_alloc(s.alloc) &&
          static_cast<std::size_t>(s.alloc) < cloud_load.size()) {
        ++cloud_load[s.alloc];
      }
    }
    std::vector<Directive> directives;
    base_->decide(view, events, directives);
    // Keyed by id over the instance's id range: the reference only ever
    // runs over in-memory instances, whose ids are below jobs.size().
    std::vector<char> directed(view.instance().jobs.size(), 0);
    for (Directive& d : directives) {
      if (d.job < 0 || static_cast<std::size_t>(d.job) >= directed.size()) {
        continue;
      }
      directed[d.job] = 1;
      const JobFields s = view.fields(d.job);
      const int effective = d.target == kTargetKeep ? s.alloc : d.target;
      if (!is_cloud_alloc(effective) ||
          static_cast<std::size_t>(effective) >= failures_.size()) {
        continue;
      }
      if (d.target == kTargetKeep || effective == s.alloc) {
        if (evacuate(effective)) {
          d.target = reroute_target(view, s, now, cloud_load);
        }
      } else if (avoid_new(effective, now)) {
        d.target = reroute_target(view, s, now, cloud_load);
      }
    }

    for (const std::int32_t slot : view.live_slots()) {
      const JobFields s = view.fields_at_slot(slot);
      if (directed[s.job->id] != 0) continue;
      if (!is_cloud_alloc(s.alloc) ||
          static_cast<std::size_t>(s.alloc) >= failures_.size() ||
          !evacuate(s.alloc)) {
        continue;
      }
      directives.push_back(Directive{
          s.job->id, reroute_target(view, s, now, cloud_load),
          kEvacuationPriority});
    }
    out.insert(out.end(), directives.begin(), directives.end());
  }

 private:
  [[nodiscard]] bool blacklisted(CloudId k) const {
    return failures_.at(k) >= config_.blacklist_after;
  }
  [[nodiscard]] bool avoid_new(CloudId k, Time now) const {
    return down_[k] != 0 || blacklisted(k) || now < retry_at_[k];
  }
  [[nodiscard]] bool evacuate(CloudId k) const {
    return down_[k] != 0 || blacklisted(k);
  }
  [[nodiscard]] int reroute_target(const SimView& view, const JobFields& state,
                                   Time now,
                                   std::vector<int>& cloud_load) const {
    const Platform& platform = view.platform();
    CloudId best_cloud = -1;
    for (CloudId k = 0; k < platform.cloud_count(); ++k) {
      if (avoid_new(k, now)) continue;
      if (best_cloud < 0 ||
          platform.cloud_speed(k) > platform.cloud_speed(best_cloud) ||
          (platform.cloud_speed(k) == platform.cloud_speed(best_cloud) &&
           cloud_load[k] < cloud_load[best_cloud])) {
        best_cloud = k;
      }
    }
    if (best_cloud < 0) return kAllocEdge;
    const Time on_cloud =
        uncontended_completion(view.instance(), state, best_cloud, now);
    const Time on_edge =
        uncontended_completion(view.instance(), state, kAllocEdge, now);
    if (on_edge <= on_cloud) return kAllocEdge;
    ++cloud_load[best_cloud];
    return best_cloud;
  }

  std::unique_ptr<Policy> base_;
  FailoverConfig config_;
  std::vector<int> failures_;
  std::vector<double> retry_at_;
  std::vector<char> down_;
};

/// Mirror of make_policy() for the frozen reference implementations.
/// Covers every name the equivalence suite and the policy micro-benchmark
/// exercise.
inline std::unique_ptr<Policy> make_reference_policy(
    const std::string& name) {
  for (const char* prefix : {"failover-", "failover:"}) {
    if (name.rfind(prefix, 0) == 0) {
      return std::make_unique<FailoverPolicy>(
          make_reference_policy(name.substr(std::string(prefix).size())));
    }
  }
  if (name == "edge-only") return std::make_unique<EdgeOnlyPolicy>();
  if (name == "greedy") return std::make_unique<GreedyPolicy>();
  if (name == "srpt") return std::make_unique<SrptPolicy>();
  if (name == "srpt-noreexec") {
    SrptConfig config;
    config.allow_reexecution = false;
    return std::make_unique<SrptPolicy>(config);
  }
  if (name == "ssf-edf") return std::make_unique<SsfEdfPolicy>();
  if (name == "fcfs") return std::make_unique<FcfsPolicy>();
  throw std::invalid_argument("unknown reference policy: " + name);
}

}  // namespace ref
}  // namespace ecs
