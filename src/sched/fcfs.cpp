#include "sched/fcfs.hpp"

namespace ecs {

void FcfsPolicy::reset(const Instance& instance) {
  clock_.bind(instance, 0.0);
  fields_.clear();
  order_.clear();
}

void FcfsPolicy::decide(const SimView& view, const std::vector<Event>& events,
                        std::vector<Directive>& out) {
  (void)events;

  if (fields_.size() < view.state_count()) {
    fields_.resize(view.state_count());
  }
  for (const std::int32_t slot : view.live_slots()) {
    fields_[static_cast<std::size_t>(slot)] = view.fields_at_slot(slot);
  }
  order_.carry(view);
  std::vector<OrderedJob>& order = order_.entries();
  for (OrderedJob& e : order) {
    e.key = fields_[static_cast<std::size_t>(e.pos)].job->release;
  }
  sort_ordered(order);
  if (!clock_.bound()) clock_.bind(view.instance(), view.now());
  list_assign_directives(view, order, fields_, clock_, out,
                         ReasonCode::kFcfsArrivalOrder,
                         ReasonCode::kFcfsArrivalOrder);
}

}  // namespace ecs
