#include "obs/metrics.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace ecs::obs {
namespace {

template <typename Store>
MetricsRegistry::Id get_or_create(std::map<std::string, MetricsRegistry::Id>& ids,
                                  Store& store, const std::string& name) {
  const auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  const MetricsRegistry::Id id = static_cast<MetricsRegistry::Id>(store.size());
  store.emplace_back();
  ids.emplace(name, id);
  return id;
}

}  // namespace

MetricsRegistry::Id MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(counter_ids_, counters_, name);
}

MetricsRegistry::Id MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(gauge_ids_, gauges_, name);
}

MetricsRegistry::Id MetricsRegistry::sketch(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(sketch_ids_, sketches_, name);
}

void MetricsRegistry::add(Id id, std::uint64_t delta) noexcept {
  counters_[static_cast<std::size_t>(id)].value.fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_max(Id id, double value) noexcept {
  std::atomic<double>& max = gauges_[static_cast<std::size_t>(id)].max;
  double current = max.load(std::memory_order_relaxed);
  while (value > current &&
         !max.compare_exchange_weak(current, value,
                                    std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::sketch_observe(Id id, double value) {
  Sketch& s = sketches_[static_cast<std::size_t>(id)];
  std::lock_guard<std::mutex> lock(s.mutex);
  s.sketch.observe(value);
}

void MetricsRegistry::sketch_merge(Id id, const QuantileSketch& other) {
  Sketch& s = sketches_[static_cast<std::size_t>(id)];
  std::lock_guard<std::mutex> lock(s.mutex);
  s.sketch.merge(other);
}

namespace {

template <typename Map>
typename Map::mapped_type require_id(const Map& ids, const std::string& name,
                                     const char* family) {
  const auto it = ids.find(name);
  if (it == ids.end()) {
    throw std::out_of_range(std::string("no ") + family + " named " + name);
  }
  return it->second;
}

}  // namespace

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Id id = require_id(counter_ids_, name, "counter");
  return counters_[static_cast<std::size_t>(id)].value.load(
      std::memory_order_relaxed);
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Id id = require_id(gauge_ids_, name, "gauge");
  return gauges_[static_cast<std::size_t>(id)].max.load(
      std::memory_order_relaxed);
}

QuantileSketch MetricsRegistry::sketch_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Id id = require_id(sketch_ids_, name, "sketch");
  const Sketch& s = sketches_[static_cast<std::size_t>(id)];
  std::lock_guard<std::mutex> sketch_lock(s.mutex);
  return s.sketch;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = [](const std::string& name) {
    std::string quoted = "\"";
    quoted += json::escape(name);
    quoted += "\":";
    return quoted;
  };
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, id] : counter_ids_) {
    out << (first ? "" : ",") << "\n    " << key(name)
        << counters_[static_cast<std::size_t>(id)].value.load(
               std::memory_order_relaxed);
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, id] : gauge_ids_) {
    out << (first ? "" : ",") << "\n    " << key(name)
        << json::number(gauges_[static_cast<std::size_t>(id)].max.load(
               std::memory_order_relaxed));
    first = false;
  }
  out << "\n  },\n  \"sketches\": {";
  first = true;
  for (const auto& [name, id] : sketch_ids_) {
    const Sketch& s = sketches_[static_cast<std::size_t>(id)];
    std::lock_guard<std::mutex> sketch_lock(s.mutex);
    const QuantileSketch& q = s.sketch;
    out << (first ? "" : ",") << "\n    " << key(name)
        << "{\"alpha\":" << json::number(QuantileSketch::kAlpha)
        << ",\"count\":" << q.count()
        << ",\"sum\":" << json::number(q.sum())
        << ",\"min\":" << json::number(q.min())
        << ",\"max\":" << json::number(q.max())
        << ",\"p50\":" << json::number(q.quantile(0.50))
        << ",\"p90\":" << json::number(q.quantile(0.90))
        << ",\"p99\":" << json::number(q.quantile(0.99))
        << ",\"p999\":" << json::number(q.quantile(0.999)) << "}";
    first = false;
  }
  out << "\n  }\n}\n";
}

namespace {

/// Prometheus metric-name charset: [a-zA-Z0-9_:]; anything else becomes _.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

/// Prometheus sample values: NaN and ±Inf are legal bare tokens.
std::string prom_value(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  return json::number(value);
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, id] : counter_ids_) {
    const std::string n = prom_name(name);
    out << "# TYPE " << n << " counter\n"
        << n << " "
        << counters_[static_cast<std::size_t>(id)].value.load(
               std::memory_order_relaxed)
        << "\n";
  }
  for (const auto& [name, id] : gauge_ids_) {
    const std::string n = prom_name(name);
    out << "# TYPE " << n << " gauge\n"
        << n << " "
        << prom_value(gauges_[static_cast<std::size_t>(id)].max.load(
               std::memory_order_relaxed))
        << "\n";
  }
  for (const auto& [name, id] : sketch_ids_) {
    const Sketch& s = sketches_[static_cast<std::size_t>(id)];
    std::lock_guard<std::mutex> sketch_lock(s.mutex);
    const QuantileSketch& q = s.sketch;
    const std::string n = prom_name(name);
    out << "# TYPE " << n << " summary\n";
    constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
    for (const double qq : kQuantiles) {
      out << n << "{quantile=\"" << json::number(qq) << "\"} "
          << prom_value(q.quantile(qq)) << "\n";
    }
    out << n << "_sum " << prom_value(q.sum()) << "\n"
        << n << "_count " << q.count() << "\n"
        << "# TYPE " << n << "_min gauge\n"
        << n << "_min " << prom_value(q.min()) << "\n"
        << "# TYPE " << n << "_max gauge\n"
        << n << "_max " << prom_value(q.max()) << "\n";
  }
}

}  // namespace ecs::obs
