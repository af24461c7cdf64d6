// soa.hpp - Data-oriented state pools for the simulation engine.
//
// The engine's per-job dynamic state lives here as structure-of-arrays
// component pools (one parallel array per field). Three components:
//
//  * StatePool   - the per-slot job state: the hot progress fields
//                  (rem_up / rem_work / rem_down / rate / last_update) and
//                  the warm allocation / lifecycle fields, each in its own
//                  dense array indexed by state slot. It is the only copy
//                  of per-job state: policies read it through SimView,
//                  which gathers a JobFields per job from the arrays.
//  * LiveIndex   - the live (released, unfinished) jobs in ascending id
//                  order, kept in place: parallel id and slot arrays that
//                  policies read directly as SimView::live_jobs() and
//                  live_slots().
//  * IdMap       - open-addressing id -> slot hash map for the engine.
//                  Replaces the dense id window, whose storage grew with
//                  the *span* of in-flight ids (unbounded when one old job
//                  stays live while later ids churn); the map's capacity
//                  tracks the *count* of tracked ids, so engine memory is
//                  O(peak_live) under any completion order.
//
// All three are deterministic: LiveIndex iterates in id order, and IdMap is
// only ever probed point-wise.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/job.hpp"
#include "core/time.hpp"
#include "sim/state.hpp"

namespace ecs::soa {

/// SoA component pool of per-job engine state, one slot per tracked job.
class StatePool {
 public:
  /// Resizes to `n` slots, every one reset to the default state. Keeps the
  /// arrays' capacity, so a reused pool allocates nothing on re-prepare.
  void reset(std::size_t n) {
    job_.assign(n, Job{});
    best_time_.assign(n, 0.0);
    alloc_.assign(n, kAllocUnassigned);
    rem_up_.assign(n, 0.0);
    rem_work_.assign(n, 0.0);
    rem_down_.assign(n, 0.0);
    active_.assign(n, Activity::kNone);
    rate_.assign(n, 0.0);
    last_update_.assign(n, 0.0);
    was_active_.assign(n, 0);
    released_.assign(n, 0);
    done_.assign(n, 0);
    completion_.assign(n, -1.0);
    reassignments_.assign(n, 0);
  }

  /// Appends one default slot (growth on arrival); returns its index.
  std::int32_t grow() {
    const std::int32_t slot = static_cast<std::int32_t>(job_.size());
    job_.emplace_back();
    best_time_.push_back(0.0);
    alloc_.push_back(kAllocUnassigned);
    rem_up_.push_back(0.0);
    rem_work_.push_back(0.0);
    rem_down_.push_back(0.0);
    active_.push_back(Activity::kNone);
    rate_.push_back(0.0);
    last_update_.push_back(0.0);
    was_active_.push_back(0);
    released_.push_back(0);
    done_.push_back(0);
    completion_.push_back(-1.0);
    reassignments_.push_back(0);
    return slot;
  }

  /// Resets one slot to the default state (slot recycling).
  void clear_slot(std::int32_t s) {
    job_[s] = Job{};
    best_time_[s] = 0.0;
    alloc_[s] = kAllocUnassigned;
    rem_up_[s] = 0.0;
    rem_work_[s] = 0.0;
    rem_down_[s] = 0.0;
    active_[s] = Activity::kNone;
    rate_[s] = 0.0;
    last_update_[s] = 0.0;
    was_active_[s] = 0;
    released_[s] = 0;
    done_[s] = 0;
    completion_[s] = -1.0;
    reassignments_[s] = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return job_.size(); }

  // Component accessors (slot-indexed).
  [[nodiscard]] Job& job(std::int32_t s) noexcept { return job_[s]; }
  [[nodiscard]] const Job& job(std::int32_t s) const noexcept {
    return job_[s];
  }
  [[nodiscard]] double& best_time(std::int32_t s) noexcept {
    return best_time_[s];
  }
  [[nodiscard]] double best_time(std::int32_t s) const noexcept {
    return best_time_[s];
  }
  [[nodiscard]] int& alloc(std::int32_t s) noexcept { return alloc_[s]; }
  [[nodiscard]] int alloc(std::int32_t s) const noexcept { return alloc_[s]; }
  [[nodiscard]] double& rem_up(std::int32_t s) noexcept { return rem_up_[s]; }
  [[nodiscard]] double rem_up(std::int32_t s) const noexcept {
    return rem_up_[s];
  }
  [[nodiscard]] double& rem_work(std::int32_t s) noexcept {
    return rem_work_[s];
  }
  [[nodiscard]] double rem_work(std::int32_t s) const noexcept {
    return rem_work_[s];
  }
  [[nodiscard]] double& rem_down(std::int32_t s) noexcept {
    return rem_down_[s];
  }
  [[nodiscard]] double rem_down(std::int32_t s) const noexcept {
    return rem_down_[s];
  }
  [[nodiscard]] Activity& active(std::int32_t s) noexcept {
    return active_[s];
  }
  [[nodiscard]] Activity active(std::int32_t s) const noexcept {
    return active_[s];
  }
  [[nodiscard]] double& rate(std::int32_t s) noexcept { return rate_[s]; }
  [[nodiscard]] double rate(std::int32_t s) const noexcept {
    return rate_[s];
  }
  [[nodiscard]] Time& last_update(std::int32_t s) noexcept {
    return last_update_[s];
  }
  [[nodiscard]] Time last_update(std::int32_t s) const noexcept {
    return last_update_[s];
  }
  [[nodiscard]] std::uint8_t& was_active(std::int32_t s) noexcept {
    return was_active_[s];
  }
  [[nodiscard]] std::uint8_t& released(std::int32_t s) noexcept {
    return released_[s];
  }
  [[nodiscard]] std::uint8_t& done(std::int32_t s) noexcept {
    return done_[s];
  }
  [[nodiscard]] Time& completion(std::int32_t s) noexcept {
    return completion_[s];
  }
  [[nodiscard]] int& reassignments(std::int32_t s) noexcept {
    return reassignments_[s];
  }

  [[nodiscard]] bool live(std::int32_t s) const noexcept {
    return released_[s] != 0 && done_[s] == 0;
  }

  /// The next activity slot `s` needs on its current allocation, given its
  /// remaining amounts; kNone when everything is finished (or unassigned).
  [[nodiscard]] Activity next_activity(std::int32_t s) const noexcept {
    if (alloc_[s] == kAllocUnassigned || done_[s] != 0) {
      return Activity::kNone;
    }
    if (alloc_[s] == kAllocEdge) {
      return amount_done(rem_work_[s]) ? Activity::kNone : Activity::kCompute;
    }
    if (!amount_done(rem_up_[s])) return Activity::kUplink;
    if (!amount_done(rem_work_[s])) return Activity::kCompute;
    if (!amount_done(rem_down_[s])) return Activity::kDownlink;
    return Activity::kNone;
  }

  [[nodiscard]] bool all_amounts_done(std::int32_t s) const noexcept {
    if (alloc_[s] == kAllocEdge) return amount_done(rem_work_[s]);
    return amount_done(rem_up_[s]) && amount_done(rem_work_[s]) &&
           amount_done(rem_down_[s]);
  }

  /// Brings the progress of each listed slot up to `to`: subtracts
  /// rate * elapsed from the remaining amount of its current activity and
  /// moves the accounting anchor (idle slots are left alone). One
  /// contiguous pass with the component-array bases hoisted out of the
  /// loop, so the compiler keeps them in registers and the body stays
  /// branch-lean (one switch on the activity kind, no function-call or
  /// bounds-check traffic).
  void advance_active(const std::int32_t* slots, std::size_t count,
                      Time to) noexcept {
    const Activity* ak = active_.data();
    const double* rt = rate_.data();
    Time* lu = last_update_.data();
    double* ru = rem_up_.data();
    double* rw = rem_work_.data();
    double* rd = rem_down_.data();
    for (std::size_t i = 0; i < count; ++i) {
      const std::int32_t s = slots[i];
      const double dt = std::max(0.0, to - lu[s]);
      switch (ak[s]) {
        case Activity::kUplink:
          ru[s] = clamp_amount(ru[s] - dt * rt[s]);
          break;
        case Activity::kCompute:
          rw[s] = clamp_amount(rw[s] - dt * rt[s]);
          break;
        case Activity::kDownlink:
          rd[s] = clamp_amount(rd[s] - dt * rt[s]);
          break;
        case Activity::kNone:
          continue;  // idle: nothing progresses, the anchor stays put
      }
      lu[s] = to;
    }
  }

  /// Gathers the policy-facing fields of slot `s` from the component
  /// arrays.
  [[nodiscard]] JobFields fields(std::int32_t s) const noexcept {
    return JobFields{&job_[s],   best_time_[s], alloc_[s],
                     rem_up_[s], rem_work_[s],  rem_down_[s]};
  }

 private:
  // The fields a policy reads (see JobFields).
  std::vector<Job> job_;
  std::vector<double> best_time_;
  std::vector<int> alloc_;
  std::vector<double> rem_up_;
  std::vector<double> rem_work_;
  std::vector<double> rem_down_;
  /// What the job is doing right now.
  std::vector<Activity> active_;
  /// Lazy progress accounting: while a slot is active its activity
  /// consumes the remaining amount at `rate` units per unit of simulated
  /// time, and the rem_* fields are authoritative only as of
  /// `last_update`. advance_active() brings them up to date; per event
  /// the engine does so for the active slots only.
  std::vector<double> rate_;
  std::vector<Time> last_update_;
  /// The slot was mid-activity when the current decision round began;
  /// arbitration reads it to detect preemptions in O(1).
  std::vector<std::uint8_t> was_active_;
  std::vector<std::uint8_t> released_;
  std::vector<std::uint8_t> done_;
  std::vector<Time> completion_;
  std::vector<int> reassignments_;
};

/// The live jobs ascending by id, with each job's state slot at the same
/// position of a parallel array. A release-ordered stream with ascending
/// ids only ever appends; any other insert, and every erase, is a binary
/// search and a shift of the tail.
class LiveIndex {
 public:
  void clear() noexcept {
    ids_.clear();
    slots_.clear();
  }

  /// Adds a job that is not tracked yet.
  void insert(JobId id, std::int32_t slot) {
    if (ids_.empty() || ids_.back() < id) {
      ids_.push_back(id);
      slots_.push_back(slot);
      return;
    }
    const auto at = std::lower_bound(ids_.begin(), ids_.end(), id);
    assert(*at != id);
    slots_.insert(slots_.begin() + (at - ids_.begin()), slot);
    ids_.insert(at, id);
  }

  /// Removes a tracked job.
  void erase(JobId id) {
    const auto at = std::lower_bound(ids_.begin(), ids_.end(), id);
    assert(at != ids_.end() && *at == id);
    slots_.erase(slots_.begin() + (at - ids_.begin()));
    ids_.erase(at);
  }

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  /// The live ids, ascending.
  [[nodiscard]] std::span<const JobId> ids() const noexcept { return ids_; }
  /// The state slots of ids(), position for position.
  [[nodiscard]] std::span<const std::int32_t> slots() const noexcept {
    return slots_;
  }

 private:
  std::vector<JobId> ids_;
  std::vector<std::int32_t> slots_;
};

/// Open-addressing id -> slot hash map (linear probing, power-of-two
/// capacity, Fibonacci-hashed keys, backward-shift deletion — no
/// tombstones, so lookup cost stays O(1) under sustained insert/erase
/// churn). Capacity grows with the number of *simultaneously tracked* ids
/// and never with their numeric span, which is the engine's O(peak_live)
/// memory bound. Each bucket holds its key and slot side by side, so a hit
/// touches one cache line.
class IdMap {
 public:
  /// find() result when the id is not tracked: absent ids are retired,
  /// rejected or unseen.
  static constexpr std::int32_t kAbsent = -1;

  void clear() {
    resize(buckets_.empty() ? kMinCapacity : buckets_.size());
  }

  [[nodiscard]] std::int32_t find(JobId id) const noexcept {
    if (buckets_.empty()) return kAbsent;
    std::size_t i = index_of(id);
    while (buckets_[i].key != kEmptyKey) {
      if (buckets_[i].key == id) return buckets_[i].slot;
      i = (i + 1) & mask();
    }
    return kAbsent;
  }

  /// Inserts a new id (must not be present).
  void insert(JobId id, std::int32_t slot) {
    if (buckets_.empty()) clear();
    if ((size_ + 1) * 4 > buckets_.size() * 3) rehash(buckets_.size() * 2);
    std::size_t i = index_of(id);
    while (buckets_[i].key != kEmptyKey) {
      assert(buckets_[i].key != id);
      i = (i + 1) & mask();
    }
    buckets_[i] = Bucket{id, slot};
    ++size_;
  }

  /// Erases a present id via backward-shift deletion (Knuth's Algorithm R):
  /// subsequent probe-chain members whose ideal bucket precedes the hole
  /// slide back, so no tombstone is left behind.
  void erase(JobId id) {
    std::size_t i = index_of(id);
    while (buckets_[i].key != id) {
      assert(buckets_[i].key != kEmptyKey);
      i = (i + 1) & mask();
    }
    std::size_t j = i;
    while (true) {
      buckets_[i].key = kEmptyKey;
      while (true) {
        j = (j + 1) & mask();
        if (buckets_[j].key == kEmptyKey) {
          --size_;
          return;
        }
        const std::size_t ideal = index_of(buckets_[j].key);
        // The entry at j may fill the hole at i unless its ideal bucket
        // lies cyclically within (i, j] — moving it would then break its
        // own probe chain.
        const bool stuck = i < j ? (ideal > i && ideal <= j)
                                 : (ideal > i || ideal <= j);
        if (!stuck) break;
      }
      buckets_[i] = buckets_[j];
      i = j;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return buckets_.size();
  }

 private:
  struct Bucket {
    JobId key;
    std::int32_t slot;
  };
  static constexpr JobId kEmptyKey = -1;
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t mask() const noexcept {
    return buckets_.size() - 1;
  }
  /// Fibonacci hashing: the top bits of id * 2^64 / phi. Consecutive ids
  /// land far apart, and so do ids a power-of-two stride apart, which a
  /// masked identity hash would pile into one bucket.
  [[nodiscard]] std::size_t index_of(JobId id) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Empties the map at `capacity` buckets (a power of two).
  void resize(std::size_t capacity) {
    buckets_.assign(capacity, Bucket{kEmptyKey, kAbsent});
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Bucket> old = std::move(buckets_);
    resize(new_capacity);
    for (const Bucket& b : old) {
      if (b.key != kEmptyKey) insert(b.key, b.slot);
    }
  }

  std::vector<Bucket> buckets_;  ///< kEmptyKey marks an empty bucket
  int shift_ = 64;               ///< 64 - log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace ecs::soa
