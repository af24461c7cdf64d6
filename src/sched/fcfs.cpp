#include "sched/fcfs.hpp"

#include <algorithm>

namespace ecs {

void FcfsPolicy::reset(const Instance& instance) {
  clock_.bind(instance, 0.0);
  fields_.clear();
  order_.clear();
}

void FcfsPolicy::decide(const SimView& view, const std::vector<Event>& events,
                        std::vector<Directive>& out) {
  (void)events;

  fields_.clear();
  order_.clear();
  for (const JobId id : view.live_jobs()) {
    const auto pos = static_cast<std::int32_t>(fields_.size());
    fields_.push_back(view.fields(id));
    order_.emplace_back(id, fields_.back().job->release, pos);
  }
  sort_ordered(order_);
  if (!clock_.bound()) clock_.bind(view.instance(), view.now());
  list_assign_directives(view, order_, fields_, clock_, out,
                         ReasonCode::kFcfsArrivalOrder,
                         ReasonCode::kFcfsArrivalOrder);
}

}  // namespace ecs
