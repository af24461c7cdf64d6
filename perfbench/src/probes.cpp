#include "probes.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/metrics.hpp"

namespace perfbench {

WorldSpan& SpanLog::open(std::size_t index, const std::string& policy) {
  WorldSpan& w = worlds_.emplace_back();
  w.world = index;
  w.policy = policy;
  w.begin_ns = now_ns();
  return w;
}

void SpanLog::on_decide(double ns, std::size_t live) {
  WorldSpan& w = current();
  w.decide_ns += ns;
  ++w.decide_calls;
  w.live_sum += live;
  decide_sketch_.observe(ns);
}

void SpanLog::write_jsonl(const std::string& path,
                          const std::string& workload) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const auto child = [&](std::size_t world, const char* name, double ns,
                         std::uint64_t calls) {
    out << "{\"span\":\"" << name << "\",\"parent\":\"world/" << world
        << "\",\"trace\":\"" << workload << "\",\"ns\":" << ns
        << ",\"calls\":" << calls << "}\n";
  };
  for (const WorldSpan& w : worlds_) {
    out << "{\"span\":\"world/" << w.world << "\",\"parent\":null,\"trace\":\""
        << workload << "\",\"policy\":\"" << w.policy
        << "\",\"begin_ns\":" << w.begin_ns << ",\"end_ns\":" << w.end_ns
        << ",\"service_ns\":" << w.service_ns << ",\"events\":" << w.events
        << ",\"decisions\":" << w.decisions << "}\n";
    child(w.world, "instance_gen", w.instance_gen_ns, 1);
    child(w.world, "decide", w.decide_ns, w.decide_calls);
    child(w.world, "arrival_next", w.arrival_ns, w.arrival_calls);
    child(w.world, "validate", w.validate_ns, w.validate_ns > 0.0 ? 1 : 0);
    child(w.world, "metrics", w.metrics_ns, 1);
  }
}

void StretchTail::record(const ecs::obs::TraceRecord& rec) {
  if (rec.kind == ecs::obs::TraceKind::kInstant &&
      rec.point == ecs::obs::TracePoint::kCompletion) {
    sketch_.observe(rec.value);
  }
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(const ecs::SimStats& s) {
  for (const std::uint64_t v :
       {s.events, s.decisions, s.reassignments, s.fault_aborts,
        s.message_losses, s.preemptions, s.uplink_retransmits,
        s.downlink_retransmits, s.max_queue_depth, s.peak_live,
        s.peak_tracked, s.admitted, s.completed, s.rejections, s.sheds}) {
    add(v);
  }
  add(s.max_stretch);
}

void Digest::add(const ecs::SimResult& result) {
  add(static_cast<std::uint64_t>(result.completions.size()));
  add_bytes(result.completions.data(),
            result.completions.size() * sizeof(ecs::Time));
  add(result.stats);
}

void Digest::add(const ecs::PolicyAggregate& a) {
  // wall_seconds is host time and deliberately left out.
  for (const ecs::Accumulator* acc :
       {&a.max_stretch, &a.mean_stretch, &a.reassignments, &a.events}) {
    add(static_cast<std::uint64_t>(acc->count()));
    add(acc->sum());
    add(acc->min());
    add(acc->max());
    add(acc->variance());
  }
  for (const ecs::obs::QuantileSketch* s :
       {&a.stretch_sketch, &a.flow_sketch, &a.queue_depth_sketch}) {
    add(s->count());
    add(s->sum());
    add(s->min());
    add(s->max());
    for (const double q : {0.1, 0.5, 0.9, 0.99}) add(s->quantile(q));
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void fold_world(ecs::PolicyAggregate& aggregate,
                const ecs::ScheduleMetrics& metrics,
                const ecs::SimStats& stats, double wall_seconds) {
  ecs::obs::QuantileSketch stretch;
  ecs::obs::QuantileSketch flow;
  for (const ecs::JobMetrics& jm : metrics.per_job) {
    stretch.observe(jm.stretch);
    flow.observe(jm.response);
  }
  aggregate.max_stretch.add(metrics.max_stretch);
  aggregate.mean_stretch.add(metrics.mean_stretch);
  aggregate.wall_seconds.add(wall_seconds);
  aggregate.reassignments.add(static_cast<double>(stats.reassignments));
  aggregate.events.add(static_cast<double>(stats.events));
  aggregate.stretch_sketch.merge(stretch);
  aggregate.flow_sketch.merge(flow);
  aggregate.queue_depth_sketch.observe(
      static_cast<double>(stats.max_queue_depth));
}

}  // namespace perfbench
