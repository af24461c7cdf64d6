#include "sim/projection.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/policy.hpp"  // kTargetKeep, named by an assert

namespace ecs {

RemainingAmounts remaining_on(const JobFields& f, int target) {
  assert(target != kTargetKeep);
  RemainingAmounts rem;
  if (target == f.alloc) {
    rem.up = clamp_amount(f.rem_up);
    rem.work = clamp_amount(f.rem_work);
    rem.down = clamp_amount(f.rem_down);
    return rem;
  }
  // Re-execution from scratch (progress on the old resource is lost; when
  // the target is a different cloud processor the uplink must be resent).
  if (target == kAllocEdge) {
    rem.work = f.job->work;
  } else {
    rem.up = f.job->up;
    rem.work = f.job->work;
    rem.down = f.job->down;
  }
  return rem;
}

RemainingAmounts remaining_on(const JobState& state, int target) {
  return remaining_on(fields_of(state), target);
}

Time advance_through_outages(const IntervalSet* outages, Time start,
                             double duration) {
  // A zero-length leg does not need the resource at all: it must not be
  // pushed through an outage the cursor happens to sit inside.
  if (duration <= 0.0) return start;
  if (outages == nullptr || outages->empty()) return start + duration;
  Time cursor = start;
  double left = duration;
  for (const Interval& iv : outages->intervals()) {
    if (time_le(iv.end, cursor)) continue;  // outage already past
    // Available window before this outage.
    if (time_lt(cursor, iv.begin)) {
      const double window = iv.begin - cursor;
      if (left <= window + kAmountEpsilon) return cursor + left;
      left -= window;
    }
    cursor = std::max(cursor, iv.end);  // suspended through the outage
  }
  return cursor + left;
}

namespace {

/// std::max(a, b) by value (the same compare and select): a reference
/// result would keep best_target_sticky's kernel from vectorizing.
inline double max_value(double a, double b) { return a < b ? b : a; }

/// advance_through_outages with the outage-free case inlined (same values).
inline Time run_leg(const IntervalSet* outages, Time start, double duration) {
  if (outages == nullptr) return duration <= 0.0 ? start : start + duration;
  return advance_through_outages(outages, start, duration);
}

}  // namespace

Time uncontended_completion(const Platform& platform, const JobFields& f,
                            int target, Time now) {
  const RemainingAmounts rem = remaining_on(f, target);
  if (target == kAllocEdge) {
    return now + rem.work / platform.edge_speed(f.job->origin);
  }
  return now + rem.up + rem.work / platform.cloud_speed(target) + rem.down;
}

Time uncontended_completion(const Platform& platform, const JobState& state,
                            int target, Time now) {
  return uncontended_completion(platform, fields_of(state), target, now);
}

Time uncontended_completion(const Instance& instance, const JobFields& f,
                            int target, Time now) {
  if (target == kAllocEdge || instance.cloud_outages.empty()) {
    return uncontended_completion(instance.platform, f, target, now);
  }
  const RemainingAmounts rem = remaining_on(f, target);
  const IntervalSet* outages = &instance.cloud_outages.at(target);
  // Uplink, execution and downlink all involve the cloud processor, so
  // each leg suspends during its outages.
  Time cursor = advance_through_outages(outages, now, rem.up);
  cursor = advance_through_outages(
      outages, cursor, rem.work / instance.platform.cloud_speed(target));
  cursor = advance_through_outages(outages, cursor, rem.down);
  return cursor;
}

Time uncontended_completion(const Instance& instance, const JobState& state,
                            int target, Time now) {
  return uncontended_completion(instance, fields_of(state), target, now);
}

CloudId fastest_cloud(const Platform& platform) {
  CloudId best = -1;
  double speed = 0.0;
  for (CloudId k = 0; k < platform.cloud_count(); ++k) {
    if (platform.cloud_speed(k) > speed) {
      speed = platform.cloud_speed(k);
      best = k;
    }
  }
  return best;
}

Time best_uncontended_completion(const Platform& platform, const JobFields& f,
                                 Time now) {
  Time best = uncontended_completion(platform, f, kAllocEdge, now);
  if (platform.cloud_count() > 0) {
    // Idle cloud processors of equal speed are interchangeable; the
    // fastest one is the best fresh representative. The current
    // allocation (if any) is probed separately to account for progress.
    best = std::min(
        best, uncontended_completion(platform, f, fastest_cloud(platform), now));
    if (is_cloud_alloc(f.alloc)) {
      best = std::min(best, uncontended_completion(platform, f, f.alloc, now));
    }
  }
  return best;
}

Time best_uncontended_completion(const Platform& platform,
                                 const JobState& state, Time now) {
  return best_uncontended_completion(platform, fields_of(state), now);
}

ResourceClock::ResourceClock(const Platform& platform, Time now) {
  bind(platform, now);
}

ResourceClock::ResourceClock(const Instance& instance, Time now) {
  bind(instance, now);
}

void ResourceClock::bind(const Platform& platform, Time now) {
  const auto edges = static_cast<std::size_t>(platform.edge_count());
  const auto clouds = static_cast<std::size_t>(platform.cloud_count());
  for (std::vector<Time>* lane : {&edge_cpu_, &edge_send_, &edge_recv_}) {
    lane->resize(edges);
  }
  for (std::vector<Time>* lane : {&cloud_cpu_, &cloud_send_, &cloud_recv_}) {
    lane->resize(clouds);
  }
  fresh_.resize(clouds);
  outages_ = nullptr;
  bound_ = true;
  reset(now);
}

void ResourceClock::bind(const Instance& instance, Time now) {
  bind(instance.platform, now);
  if (!instance.cloud_outages.empty()) {
    outages_ = &instance.cloud_outages;
  }
}

void ResourceClock::reset(Time now) noexcept {
  now_ = now;
  for (std::vector<Time>* lane : {&edge_cpu_, &edge_send_, &edge_recv_,
                                  &cloud_cpu_, &cloud_send_, &cloud_recv_}) {
    std::fill(lane->begin(), lane->end(), now);
  }
}

ResourceClock::Projection ResourceClock::cloud_legs(
    std::size_t kc, const IntervalSet* outages, double up, double exec_time,
    double down, Time edge_send, Time edge_recv) const {
  Projection p{};
  // An already-uploaded job (up == 0) has no uplink leg: it must not
  // inherit delays from other jobs' committed uplinks on the same ports
  // (commit() guards the port clocks the same way).
  const Time cursor = up > 0.0 ? std::max(edge_send, cloud_recv_[kc]) : now_;
  p.up_end = run_leg(outages, cursor, up);
  p.exec_end = run_leg(outages, std::max(p.up_end, cloud_cpu_[kc]), exec_time);
  p.done = down > 0.0
               ? run_leg(outages,
                         std::max({p.exec_end, cloud_send_[kc], edge_recv}),
                         down)
               : p.exec_end;
  return p;
}

ResourceClock::Projection ResourceClock::project_detail(
    const Platform& platform, const JobFields& f, int target) const {
  const RemainingAmounts rem = remaining_on(f, target);
  const auto o = static_cast<std::size_t>(f.job->origin);
  if (target == kAllocEdge) {
    Projection p{};
    p.up_end = edge_cpu_[o];
    p.exec_end = edge_cpu_[o] + rem.work / platform.edge_speed(f.job->origin);
    p.done = p.exec_end;
    return p;
  }
  return cloud_legs(static_cast<std::size_t>(target), outages_of(target),
                    rem.up, rem.work / platform.cloud_speed(target), rem.down,
                    edge_send_[o], edge_recv_[o]);
}

Time ResourceClock::project(const Platform& platform, const JobFields& f,
                            int target) const {
  return project_detail(platform, f, target).done;
}

Time ResourceClock::project(const Platform& platform, const JobState& state,
                            int target) const {
  return project(platform, fields_of(state), target);
}

Time ResourceClock::commit(const Platform& platform, const JobFields& f,
                           int target) {
  const Projection p = project_detail(platform, f, target);
  const auto o = static_cast<std::size_t>(f.job->origin);
  if (target == kAllocEdge) {
    edge_cpu_[o] = p.exec_end;
    return p.done;
  }
  const auto kc = static_cast<std::size_t>(target);
  const RemainingAmounts rem = remaining_on(f, target);
  if (rem.up > 0.0) {
    edge_send_[o] = p.up_end;
    cloud_recv_[kc] = p.up_end;
  }
  cloud_cpu_[kc] = p.exec_end;
  if (rem.down > 0.0) {
    cloud_send_[kc] = p.done;
    edge_recv_[o] = p.done;
  }
  return p.done;
}

Time ResourceClock::commit(const Platform& platform, const JobState& state,
                           int target) {
  return commit(platform, fields_of(state), target);
}

bool ResourceClock::starts_now(const Platform& /*platform*/, const JobFields& f,
                               int target, Time now) const {
  const RemainingAmounts rem = remaining_on(f, target);
  const auto o = static_cast<std::size_t>(f.job->origin);
  if (target == kAllocEdge) {
    return time_le(edge_cpu_[o], now);
  }
  const CloudId k = target;
  const auto kc = static_cast<std::size_t>(k);
  // Nothing starts on a cloud inside one of its availability outages.
  if (const IntervalSet* outages = outages_of(k);
      outages != nullptr && outages->contains(now)) {
    return false;
  }
  if (rem.up > 0.0) {
    return time_le(edge_send_[o], now) && time_le(cloud_recv_[kc], now);
  }
  if (rem.work > 0.0) {
    return time_le(cloud_cpu_[kc], now);
  }
  return time_le(cloud_send_[kc], now) && time_le(edge_recv_[o], now);
}

bool ResourceClock::starts_now(const Platform& platform, const JobState& state,
                               int target, Time now) const {
  return starts_now(platform, fields_of(state), target, now);
}

void ResourceClock::fill_fresh(const std::vector<double>& speeds,
                               const Job& job, Time edge_send,
                               Time edge_recv) {
  // cloud_legs for every cloud with outages == nullptr, written as value
  // selects over plain arrays so that the loop vectorizes. The job's leg
  // tests are hoisted; every sum is computed, then selected; every max
  // takes its operands in cloud_legs' order. The execution leg is
  // run_leg's `duration <= 0 ? start : start + duration` as
  // max(start, start + duration): the same value for every non-NaN
  // duration (a select on a per-cloud condition would stop the
  // vectorizer), and Job/Platform validation keeps work / speed > 0.
  const bool has_up = job.up > 0.0;
  const bool has_down = job.down > 0.0;
  const double up = job.up;
  const double down = job.down;
  const double work = job.work;
  const Time now = now_;
  const std::size_t clouds = fresh_.size();
  const double* speed = speeds.data();
  const Time* recv = cloud_recv_.data();
  const Time* cpu = cloud_cpu_.data();
  const Time* send = cloud_send_.data();
  Time* fresh = fresh_.data();
  for (std::size_t kc = 0; kc < clouds; ++kc) {
    const double exec_time = work / speed[kc];
    const Time up_sum = max_value(edge_send, recv[kc]) + up;
    const Time up_end = has_up ? up_sum : now;
    const Time exec_start = max_value(up_end, cpu[kc]);
    const Time exec_end = max_value(exec_start, exec_start + exec_time);
    const Time down_sum =
        max_value(max_value(exec_end, send[kc]), edge_recv) + down;
    fresh[kc] = has_down ? down_sum : exec_end;
  }
}

std::pair<int, Time> ResourceClock::best_target_sticky(
    const Platform& platform, const JobFields& f) {
  const Job& job = *f.job;
  const auto o = static_cast<std::size_t>(job.origin);
  const Time edge_send = edge_send_[o];
  const Time edge_recv = edge_recv_[o];
  const std::vector<double>& speeds = platform.cloud_speeds();
  const Time edge_done =
      edge_cpu_[o] +
      (f.alloc == kAllocEdge ? clamp_amount(f.rem_work) : job.work) /
          platform.edge_speed(job.origin);

  // Fresh restarts on every cloud (the uplink is resent). f.alloc's entry
  // is computed too, then set to +inf below, which no target can lose to.
  if (outages_ == nullptr) {
    fill_fresh(speeds, job, edge_send, edge_recv);
  } else {
    for (std::size_t kc = 0; kc < fresh_.size(); ++kc) {
      fresh_[kc] = cloud_legs(kc, outages_of(static_cast<CloudId>(kc)), job.up,
                              job.work / speeds[kc], job.down, edge_send,
                              edge_recv)
                       .done;
    }
  }

  // Candidate order matters: the current allocation is evaluated first and
  // other targets must be *strictly* better (beyond tolerance) to win.
  int best_target = kAllocEdge;
  Time best = kTimeInfinity;
  Time threshold = kTimeInfinity;  // best - kDecisionMargin
  const auto consider = [&](int target, Time done) {
    if (done < threshold) [[unlikely]] {
      best = done;
      best_target = target;
      threshold = best - kDecisionMargin;
    }
  };
  if (is_cloud_alloc(f.alloc)) {
    const auto kc = static_cast<std::size_t>(f.alloc);
    best_target = f.alloc;
    best = cloud_legs(kc, outages_of(f.alloc), clamp_amount(f.rem_up),
                      clamp_amount(f.rem_work) / speeds[kc],
                      clamp_amount(f.rem_down), edge_send, edge_recv)
               .done;
    threshold = best - kDecisionMargin;
    consider(kAllocEdge, edge_done);
    fresh_[kc] = kTimeInfinity;  // never wins: skips f.alloc below
  } else if (f.alloc == kAllocEdge) {
    best = edge_done;
    threshold = best - kDecisionMargin;
  } else {
    consider(kAllocEdge, edge_done);
  }
  // A branch, not a select: a select would chain every cloud's compare
  // through `threshold`, while the branch is taken only on the (few)
  // improvements.
  for (std::size_t kc = 0; kc < fresh_.size(); ++kc) {
    consider(static_cast<CloudId>(kc), fresh_[kc]);
  }
  return {best_target, best};
}

}  // namespace ecs
