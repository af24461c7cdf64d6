#include "sim/arrivals.hpp"

#include <algorithm>

namespace ecs {

void InstanceArrivalStream::bind(const Instance& instance) {
  instance_ = &instance;
  pos_ = 0;
  order_.resize(instance.jobs.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<JobId>(i);
  }
  std::sort(order_.begin(), order_.end(), [&](JobId a, JobId b) {
    const Time ra = instance.jobs[a].release;
    const Time rb = instance.jobs[b].release;
    return ra != rb ? ra < rb : instance.jobs[a].id < instance.jobs[b].id;
  });
}

std::optional<Job> InstanceArrivalStream::next() {
  if (pos_ >= order_.size()) return std::nullopt;
  return instance_->jobs[order_[pos_++]];
}

}  // namespace ecs
