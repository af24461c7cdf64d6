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
  return best_uncontended_completion(platform, f, now,
                                     fastest_cloud(platform));
}

Time best_uncontended_completion(const Platform& platform, const JobFields& f,
                                 Time now, CloudId fastest) {
  Time best = uncontended_completion(platform, f, kAllocEdge, now);
  if (fastest >= 0) {
    // Idle cloud processors of equal speed are interchangeable; the
    // fastest one is the best fresh representative. The current
    // allocation (if any) is probed separately to account for progress.
    best = std::min(best, uncontended_completion(platform, f, fastest, now));
    if (is_cloud_alloc(f.alloc)) {
      best = std::min(best, uncontended_completion(platform, f, f.alloc, now));
    }
  }
  return best;
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
  max_cloud_speed_ = platform.max_cloud_speed();
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
    const Platform& platform, const JobFields& f, int target,
    const RemainingAmounts& rem) const {
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
  return project_detail(platform, f, target, remaining_on(f, target)).done;
}

void ResourceClock::apply(std::size_t o, const Choice& c) noexcept {
  if (c.target == kAllocEdge) {
    edge_cpu_[o] = c.legs.exec_end;
    return;
  }
  const auto kc = static_cast<std::size_t>(c.target);
  if (c.rem.up > 0.0) {
    edge_send_[o] = c.legs.up_end;
    cloud_recv_[kc] = c.legs.up_end;
  }
  cloud_cpu_[kc] = c.legs.exec_end;
  if (c.rem.down > 0.0) {
    cloud_send_[kc] = c.legs.done;
    edge_recv_[o] = c.legs.done;
  }
}

Time ResourceClock::commit(const Platform& platform, const JobFields& f,
                           int target) {
  const RemainingAmounts rem = remaining_on(f, target);
  const Choice c{target, rem, project_detail(platform, f, target, rem)};
  apply(static_cast<std::size_t>(f.job->origin), c);
  return c.legs.done;
}

bool ResourceClock::starts_now(const Platform& /*platform*/, const JobFields& f,
                               int target, Time now) const {
  return starts_at(static_cast<std::size_t>(f.job->origin), target,
                   remaining_on(f, target), now);
}

bool ResourceClock::starts_at(std::size_t o, int target,
                              const RemainingAmounts& rem, Time now) const {
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

Time ResourceClock::fresh_floor(const Job& job, Time edge_send,
                                Time edge_recv) const {
  // fill_fresh's steps with cloud kc's lanes dropped from each max and
  // its speed raised to the fastest. Each step is a max or a correctly
  // rounded add or divide, monotone in every operand, so dropping a max
  // operand or shrinking the quotient can only lower the result: the
  // floor is <= every cloud's completion, bit for bit.
  const Time up_end = job.up > 0.0 ? edge_send + job.up : now_;
  const Time exec_end = up_end + job.work / max_cloud_speed_;
  return job.down > 0.0 ? max_value(exec_end, edge_recv) + job.down
                        : exec_end;
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

ResourceClock::Choice ResourceClock::choose(const Platform& platform,
                                            const JobFields& f) {
  const Job& job = *f.job;
  const auto o = static_cast<std::size_t>(job.origin);
  const Time edge_send = edge_send_[o];
  const Time edge_recv = edge_recv_[o];
  const std::vector<double>& speeds = platform.cloud_speeds();
  Choice edge{kAllocEdge, remaining_on(f, kAllocEdge), {}};
  edge.legs.up_end = edge_cpu_[o];
  edge.legs.exec_end =
      edge_cpu_[o] + edge.rem.work / platform.edge_speed(job.origin);
  edge.legs.done = edge.legs.exec_end;

  // Candidate order matters: the current allocation is evaluated first and
  // other targets must be *strictly* better (beyond tolerance) to win. An
  // unassigned job's first candidate, the edge, always wins.
  Choice best = edge;
  if (is_cloud_alloc(f.alloc)) {
    const auto kc = static_cast<std::size_t>(f.alloc);
    const RemainingAmounts rem = remaining_on(f, f.alloc);
    const Projection keep =
        cloud_legs(kc, outages_of(f.alloc), rem.up, rem.work / speeds[kc],
                   rem.down, edge_send, edge_recv);
    if (!(edge.legs.done < keep.done - kDecisionMargin)) {
      best = Choice{f.alloc, rem, keep};
    }
  }
  Time threshold = best.legs.done - kDecisionMargin;

  // Fresh restarts on every cloud (the uplink is resent). f.alloc's entry
  // is computed too, then set to +inf below, which no target can lose to.
  // Without outages, none is computed when none can beat the floor.
  if (fresh_.empty()) return best;
  if (outages_ == nullptr) {
    if (!(fresh_floor(job, edge_send, edge_recv) < threshold)) return best;
    fill_fresh(speeds, job, edge_send, edge_recv);
  } else {
    for (std::size_t kc = 0; kc < fresh_.size(); ++kc) {
      fresh_[kc] = cloud_legs(kc, outages_of(static_cast<CloudId>(kc)), job.up,
                              job.work / speeds[kc], job.down, edge_send,
                              edge_recv)
                       .done;
    }
  }
  if (is_cloud_alloc(f.alloc)) {
    fresh_[static_cast<std::size_t>(f.alloc)] = kTimeInfinity;
  }
  // A branch, not a select: a select would chain every cloud's compare
  // through `threshold`, while the branch is taken only on the (few)
  // improvements.
  std::size_t winner = fresh_.size();
  for (std::size_t kc = 0; kc < fresh_.size(); ++kc) {
    if (fresh_[kc] < threshold) [[unlikely]] {
      winner = kc;
      threshold = fresh_[kc] - kDecisionMargin;
    }
  }
  if (winner == fresh_.size()) return best;
  const RemainingAmounts rem{job.up, job.work, job.down};
  return Choice{static_cast<CloudId>(winner), rem,
                cloud_legs(winner, outages_of(static_cast<CloudId>(winner)),
                           rem.up, rem.work / speeds[winner], rem.down,
                           edge_send, edge_recv)};
}

std::pair<int, Time> ResourceClock::best_target_sticky(
    const Platform& platform, const JobFields& f) {
  const Choice c = choose(platform, f);
  return {c.target, c.legs.done};
}

std::pair<int, Time> ResourceClock::place(const Platform& platform,
                                          const JobFields& f, Time now,
                                          bool* immediate) {
  const Choice c = choose(platform, f);
  const auto o = static_cast<std::size_t>(f.job->origin);
  if (immediate != nullptr) *immediate = starts_at(o, c.target, c.rem, now);
  apply(o, c);
  return {c.target, c.legs.done};
}

}  // namespace ecs
