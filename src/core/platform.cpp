#include "core/platform.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace ecs {
namespace {

void check_edge_speeds(const std::vector<double>& speeds) {
  for (double s : speeds) {
    if (!(s > 0.0) || s > 1.0 || !std::isfinite(s)) {
      throw std::invalid_argument(
          "edge speeds must lie in (0, 1]; got " + std::to_string(s));
    }
  }
}

}  // namespace

Platform::Platform(std::vector<double> edge_speeds, int cloud_count)
    : edge_speeds_(std::move(edge_speeds)) {
  if (cloud_count < 0) {
    throw std::invalid_argument("cloud_count must be >= 0");
  }
  check_edge_speeds(edge_speeds_);
  cloud_speeds_.assign(cloud_count, 1.0);
}

Platform::Platform(std::vector<double> edge_speeds,
                   std::vector<double> cloud_speeds)
    : edge_speeds_(std::move(edge_speeds)),
      cloud_speeds_(std::move(cloud_speeds)) {
  check_edge_speeds(edge_speeds_);
  for (double s : cloud_speeds_) {
    if (!(s > 0.0) || !std::isfinite(s)) {
      throw std::invalid_argument(
          "cloud speeds must be positive; got " + std::to_string(s));
    }
  }
}

bool Platform::homogeneous_cloud() const noexcept {
  return std::all_of(cloud_speeds_.begin(), cloud_speeds_.end(),
                     [](double s) { return s == 1.0; });
}

double Platform::max_cloud_speed() const noexcept {
  if (cloud_speeds_.empty()) return 0.0;
  return *std::max_element(cloud_speeds_.begin(), cloud_speeds_.end());
}

double Platform::total_speed() const noexcept {
  const double edges =
      std::accumulate(edge_speeds_.begin(), edge_speeds_.end(), 0.0);
  const double clouds =
      std::accumulate(cloud_speeds_.begin(), cloud_speeds_.end(), 0.0);
  return edges + clouds;
}

double Platform::edge_time(const Job& job) const {
  return job.work / edge_speed(job.origin);
}

double Platform::cloud_time(const Job& job) const {
  return job.up + job.work / max_cloud_speed() + job.down;
}

double Platform::cloud_time_on(const Job& job, CloudId k) const {
  return job.up + job.work / cloud_speed(k) + job.down;
}

double Platform::best_time(const Job& job) const {
  if (cloud_count() == 0) return edge_time(job);
  return std::min(edge_time(job), cloud_time(job));
}

std::vector<std::string> validate_instance(const Instance& instance) {
  std::vector<std::string> problems;
  if (instance.platform.edge_count() == 0) {
    problems.emplace_back("platform has no edge processors");
  }
  if (!instance.cloud_outages.empty() &&
      static_cast<int>(instance.cloud_outages.size()) !=
          instance.platform.cloud_count()) {
    problems.emplace_back(
        "cloud_outages must be empty or have one entry per cloud processor");
  }
  for (std::size_t i = 0; i < instance.jobs.size(); ++i) {
    const Job& job = instance.jobs[i];
    if (job.id != static_cast<JobId>(i)) {
      std::ostringstream os;
      os << "job at position " << i << " has id " << job.id
         << " (ids must equal positions)";
      problems.push_back(os.str());
    }
    const std::string msg =
        validate_job(job, instance.platform.edge_count());
    if (!msg.empty()) problems.push_back(msg);
  }
  return problems;
}

void require_valid_instance(const Instance& instance) {
  const auto problems = validate_instance(instance);
  if (!problems.empty()) {
    std::string all = "invalid instance:";
    for (const auto& p : problems) {
      all += "\n  - ";
      all += p;
    }
    throw std::invalid_argument(all);
  }
}

}  // namespace ecs
