#include "sched/common.hpp"

namespace ecs {

void list_assign_directives(const SimView& view,
                            const std::vector<OrderedJob>& order,
                            ResourceClock& clock,
                            std::vector<Directive>& out,
                            ReasonCode local_reason,
                            ReasonCode offload_reason) {
  const Platform& platform = view.platform();
  const Time now = view.now();
  // Outage-aware: projections mirror the engine's availability windows
  // (the caller bound `clock` to the instance; reset is O(1)).
  clock.reset(now);
  out.reserve(out.size() + order.size());
  double priority = 0.0;
  for (const OrderedJob& entry : order) {
    const JobFields f = view.fields(entry.id);
    const auto [target, done] = clock.best_target_sticky(platform, f);
    (void)done;
    const bool immediate = clock.starts_now(platform, f, target, now);
    clock.commit(platform, f, target);
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
  ResourceClock clock(view.instance(), view.now());
  std::vector<Directive> directives;
  list_assign_directives(view, order, clock, directives);
  return directives;
}

void sort_ordered(std::vector<OrderedJob>& order) {
  std::sort(order.begin(), order.end(),
            [](const OrderedJob& a, const OrderedJob& b) {
              return a.key != b.key ? a.key < b.key : a.id < b.id;
            });
}

void snapshot_pick_options(const SimView& view,
                           std::vector<PickOption>& out) {
  const Instance& instance = view.instance();
  const Time now = view.now();
  out.clear();
  for (const JobId id : view.live_jobs()) {
    PickOption& option = out.emplace_back();
    option.f = view.fields(id);
    // Continuing costs the same whether the target is named f.alloc or
    // kTargetKeep: both resolve to the job's own allocation.
    if (option.f.alloc != kAllocUnassigned) {
      option.keep =
          uncontended_completion(instance, option.f, option.f.alloc, now);
    }
    if (option.f.alloc != kAllocEdge) {
      option.edge = uncontended_completion(instance, option.f, kAllocEdge, now);
    }
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
