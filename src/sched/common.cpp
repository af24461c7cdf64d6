#include "sched/common.hpp"

#include <bit>
#include <numeric>
#include <span>

namespace ecs {

void list_assign_directives(const SimView& view,
                            const std::vector<OrderedJob>& order,
                            const std::vector<JobFields>& fields,
                            ResourceClock& clock,
                            std::vector<Directive>& out,
                            ReasonCode local_reason,
                            ReasonCode offload_reason) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  // Outage-aware: projections mirror the engine's availability windows
  // (the caller bound `clock` to the instance).
  clock.reset(now);
  out.reserve(out.size() + order.size());
  double priority = 0.0;
  for (const OrderedJob& entry : order) {
    const JobFields& f = fields[static_cast<std::size_t>(entry.pos)];
    bool immediate = false;
    const int target = clock.place(platform, f, now, &immediate).first;
    const ReasonCode reason =
        !immediate ? ReasonCode::kQueuedBehindPriority
                   : (is_cloud_alloc(target) ? offload_reason : local_reason);
    out.push_back(Directive{entry.id, immediate ? target : kTargetKeep,
                            priority, reason});
    priority += 1.0;
  }
}

std::vector<Directive> list_assign_directives(
    const SimView& view, const std::vector<OrderedJob>& order) {
  std::vector<JobFields> fields;
  std::vector<OrderedJob> indexed;
  for (const OrderedJob& entry : order) {
    indexed.emplace_back(entry.id, entry.key,
                         static_cast<std::int32_t>(fields.size()));
    fields.push_back(view.fields(entry.id));
  }
  ResourceClock clock(view.instance(), view.now());
  std::vector<Directive> directives;
  list_assign_directives(view, indexed, fields, clock, directives);
  return directives;
}

namespace {

/// sort_ordered's move budget, per entry, before it hands over to
/// std::sort.
constexpr std::size_t kSortMovesPerEntry = 8;

}  // namespace

std::size_t sort_ordered(std::vector<OrderedJob>& order) {
  const auto less = [](const OrderedJob& a, const OrderedJob& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  };
  const std::size_t n = order.size();
  std::size_t first = n;  // first position an insertion moved
  std::size_t budget = kSortMovesPerEntry * n;
  for (std::size_t i = 1; i < n; ++i) {
    if (!less(order[i], order[i - 1])) continue;
    const OrderedJob entry = order[i];
    std::size_t j = i;
    do {
      order[j] = order[j - 1];
      --j;
    } while (j > 0 && less(entry, order[j - 1]));
    order[j] = entry;
    first = std::min(first, j);
    if (i - j <= budget) {
      budget -= i - j;
      continue;
    }
    // Over budget: std::sort the rest. The positions before `first` still
    // hold the input's entries, sorted; those below the smallest entry
    // from `first` on keep their places, and that entry lands right after
    // them, so the first change is there.
    const auto unmoved = order.begin() + static_cast<std::ptrdiff_t>(first);
    const OrderedJob smallest = *std::min_element(unmoved, order.end(), less);
    const auto settled = std::partition_point(
        order.begin(), unmoved,
        [&](const OrderedJob& e) { return less(e, smallest); });
    std::sort(settled, order.end(), less);
    return static_cast<std::size_t>(settled - order.begin());
  }
  return first;
}

void LiveOrder::carry(const SimView& view) {
  constexpr JobId kNoJob = -1;
  constexpr JobId kCarried = -2;  // the slot's job already has its entry
  if (live_id_.size() < view.state_count()) {
    live_id_.resize(view.state_count(), kNoJob);
  }
  const std::span<const JobId> live = view.live_jobs();
  const std::span<const std::int32_t> slots = view.live_slots();
  for (std::size_t i = 0; i < live.size(); ++i) {
    live_id_[static_cast<std::size_t>(slots[i])] = live[i];
  }
  std::size_t kept = 0;
  for (const OrderedJob& e : order_) {
    JobId& occupant = live_id_[static_cast<std::size_t>(e.pos)];
    if (occupant != e.id) continue;
    occupant = kCarried;
    order_[kept++] = e;
  }
  order_.resize(kept);
  for (std::size_t i = 0; i < live.size(); ++i) {
    JobId& occupant = live_id_[static_cast<std::size_t>(slots[i])];
    if (occupant != kCarried) order_.emplace_back(live[i], 0.0, slots[i]);
    occupant = kNoJob;
  }
}

void PickSet::snapshot(const SimView& view) {
  const Instance& instance = view.instance();
  const Platform& platform = view.platform();
  const Time now = view.now();
  view_ = &view;
  edge_free_.assign(static_cast<std::size_t>(platform.edge_count()), 1);
  cloud_free_.assign(static_cast<std::size_t>(platform.cloud_count()), 1);
  edge_head_.assign(edge_free_.size(), -1);
  if (instance.cloud_outages.empty()) {
    if (platform.cloud_speeds() != speeds_) {
      speeds_ = platform.cloud_speeds();
      by_speed_.resize(speeds_.size());
      std::iota(by_speed_.begin(), by_speed_.end(), 0);
      std::sort(by_speed_.begin(), by_speed_.end(), [&](int a, int b) {
        return speeds_[a] != speeds_[b] ? speeds_[a] > speeds_[b] : a < b;
      });
    }
    cursor_ = 0;
    fresh_ = next_by_speed();
  } else {
    fresh_ = pick_fresh_cloud(view, cloud_free_);
  }
  options_.clear();
  indexed_ = 0;
  const std::size_t live = view.live_jobs().size();
  leaves_ = std::bit_ceil(std::max<std::size_t>(live, 1));
  // Leaves past the live jobs stay kEmpty; begin() keys the others.
  tree_.assign(2 * leaves_, kEmpty);
  for (const std::int32_t slot : view.live_slots()) {
    const auto i = static_cast<std::int32_t>(options_.size());
    PickOption& option = options_.emplace_back();
    option.slot = kIdle;
    option.f = view.fields_at_slot(slot);
    const int alloc = option.f.alloc;
    // Continuing costs the same whether the target is named f.alloc or
    // kTargetKeep: both resolve to the job's own allocation.
    if (alloc != kAllocUnassigned) {
      option.keep = uncontended_completion(instance, option.f, alloc, now);
    }
    if (alloc != kAllocEdge) {
      option.edge = uncontended_completion(instance, option.f, kAllocEdge, now);
    }
    std::int32_t& origin_head =
        edge_head_[static_cast<std::size_t>(option.f.job->origin)];
    option.next_same_origin = origin_head;
    origin_head = i;
  }
}

int PickSet::resolve(const JobFields& f, PickKind kind) const noexcept {
  switch (kind) {
    case PickKind::kEdge:
      return kAllocEdge;
    case PickKind::kFresh:
      return fresh_;
    case PickKind::kKeep:
      break;
  }
  const bool own_free =
      f.alloc == kAllocEdge
          ? edge_free_[static_cast<std::size_t>(f.job->origin)] != 0
          : cloud_free_[static_cast<std::size_t>(f.alloc)] != 0;
  return own_free ? f.alloc : kTargetKeep;
}

void PickSet::replay(std::int32_t i) noexcept {
  for (std::size_t n = leaf(i) >> 1; n >= 1; n >>= 1) {
    const Entry winner = better(tree_[2 * n], tree_[2 * n + 1]);
    // An unchanged match leaves every match above it unchanged too.
    if (winner.job == tree_[n].job && winner.key == tree_[n].key) break;
    tree_[n] = winner;
  }
}

int pick_fresh_cloud(const SimView& view,
                     const std::vector<char>& cloud_free) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  int best = -1;
  double speed = 0.0;
  int fallback = -1;
  double fallback_speed = 0.0;
  for (CloudId k = 0; k < platform.cloud_count(); ++k) {
    if (!cloud_free[k]) continue;
    if (view.instance().cloud_available(k, now)) {
      if (platform.cloud_speed(k) > speed) {
        speed = platform.cloud_speed(k);
        best = k;
      }
    } else if (platform.cloud_speed(k) > fallback_speed) {
      fallback_speed = platform.cloud_speed(k);
      fallback = k;
    }
  }
  return best >= 0 ? best : fallback;
}

bool contains_release(const std::vector<Event>& events) {
  for (const Event& e : events) {
    if (e.kind == EventKind::kRelease) return true;
  }
  return false;
}

}  // namespace ecs
