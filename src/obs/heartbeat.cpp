#include "obs/heartbeat.hpp"

#include <iomanip>
#include <iostream>
#include <sstream>

namespace ecs::obs {

namespace {

/// 1234567 -> "1.2M", 97300 -> "97.3k": the heartbeat line is for eyes.
std::string human_count(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  if (v >= 1e9) {
    os << v / 1e9 << "G";
  } else if (v >= 1e6) {
    os << v / 1e6 << "M";
  } else if (v >= 1e3) {
    os << v / 1e3 << "k";
  } else {
    os << std::setprecision(0) << v;
  }
  return os.str();
}

}  // namespace

HeartbeatMonitor::HeartbeatMonitor(double interval_seconds)
    : interval_(interval_seconds),
      start_(std::chrono::steady_clock::now()),
      last_emit_(start_) {}

void HeartbeatMonitor::tick(double sim_time, std::uint64_t events,
                            std::uint64_t live, std::uint64_t refused) {
  const std::uint64_t c =
      calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (c % kCheckEvery != 0) return;
  sim_time_.store(sim_time, std::memory_order_relaxed);
  events_.store(events, std::memory_order_relaxed);
  live_.store(live, std::memory_order_relaxed);
  refused_.store(refused, std::memory_order_relaxed);
  maybe_emit(false);
}

void HeartbeatMonitor::flush() { maybe_emit(true); }

void HeartbeatMonitor::maybe_emit(bool force) {
  std::lock_guard<std::mutex> lock(emit_mutex_);
  const auto now = std::chrono::steady_clock::now();
  const double since_last =
      std::chrono::duration<double>(now - last_emit_).count();
  if (!force && since_last < interval_) return;

  const double wall_s =
      std::chrono::duration<double>(now - start_).count();
  const std::uint64_t events = events_.load(std::memory_order_relaxed);
  const double window = since_last > 0.0 ? since_last : 1e-9;
  const double events_per_s =
      events >= last_events_
          ? static_cast<double>(events - last_events_) / window
          : 0.0;

  std::ostringstream line;
  line << "[heartbeat +" << std::fixed << std::setprecision(1) << wall_s
       << "s] sim_t=" << sim_time_.load(std::memory_order_relaxed)
       << " events=" << human_count(static_cast<double>(events)) << " ("
       << human_count(events_per_s) << "/s)"
       << " live=" << live_.load(std::memory_order_relaxed)
       << " refused=" << refused_.load(std::memory_order_relaxed);
  std::cerr << line.str() << std::endl;  // flush: visible now
  beats_.fetch_add(1, std::memory_order_relaxed);
  last_emit_ = now;
  last_events_ = events;
}

}  // namespace ecs::obs
