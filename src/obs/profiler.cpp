#include "obs/profiler.hpp"

#include <chrono>
#include <iomanip>
#include <ostream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ecs::obs {

const char* to_string(EnginePhase phase) noexcept {
  switch (phase) {
    case EnginePhase::kPrepare:
      return "prepare";
    case EnginePhase::kDecide:
      return "decide";
    case EnginePhase::kAllocate:
      return "allocate";
    case EnginePhase::kActivate:
      return "activate";
    case EnginePhase::kEmit:
      return "emit";
    case EnginePhase::kEventScan:
      return "event_scan";
    case EnginePhase::kAdvance:
      return "advance";
    case EnginePhase::kCompletions:
      return "completions";
    case EnginePhase::kFaults:
      return "faults";
    case EnginePhase::kAdmission:
      return "admission";
    case EnginePhase::kFinish:
      return "finish";
  }
  return "unknown";
}

namespace {

/// One-shot calibration of profile_tick() against steady_clock: read both
/// clocks, spin ~2ms, read both again. The spin length bounds the relative
/// calibration error at roughly (2 * read jitter) / 2ms ~ 10^-4, far below
/// the 10% accounting tolerance the bench acceptance pins.
double measure_ns_per_tick() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__aarch64__)
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const std::uint64_t c0 = profile_tick();
  for (;;) {
    const auto elapsed = clock::now() - t0;
    if (elapsed >= std::chrono::milliseconds(2)) break;
  }
  const std::uint64_t c1 = profile_tick();
  const auto t1 = clock::now();
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  const double ticks = static_cast<double>(c1 - c0);
  if (!(ticks > 0.0) || !(ns > 0.0)) return 1.0;  // non-monotonic TSC: bail
  return ns / ticks;
#else
  return 1.0;  // profile_tick() already returns steady_clock nanoseconds
#endif
}

}  // namespace

double calibrated_ns_per_tick() {
  static const double value = measure_ns_per_tick();
  return value;
}

// --- EngineProfiler ---

void EngineProfiler::begin_run(const std::string& policy) {
  sketch_ = &decision_ns_.try_emplace(policy).first->second;
  mark();
}

void EngineProfiler::end_run(std::uint64_t events, std::uint64_t decisions,
                             std::uint64_t elided_rounds,
                             std::uint64_t peak_live,
                             std::uint64_t peak_tracked) noexcept {
  ++runs_;
  events_ += events;
  decisions_ += decisions;
  elided_rounds_ += elided_rounds;
  if (peak_live > peak_live_) peak_live_ = peak_live;
  if (peak_tracked > peak_tracked_) peak_tracked_ = peak_tracked;
}

ProfileReport EngineProfiler::report() const {
  ProfileReport out;
  for (std::size_t i = 0; i < kEnginePhaseCount; ++i) {
    out.phases[i].count = acc_[i].count;
    out.phases[i].ns = static_cast<double>(acc_[i].ticks) * ns_per_tick_;
  }
  out.decision_ns = decision_ns_;
  out.runs = runs_;
  out.rounds = acc_[static_cast<std::size_t>(EnginePhase::kDecide)].count;
  out.events = events_;
  out.decisions = decisions_;
  out.elided_rounds = elided_rounds_;
  out.scanned_slots = scanned_slots_;
  out.peak_live = peak_live_;
  out.peak_tracked = peak_tracked_;
  out.tick_ns = ns_per_tick_;
  return out;
}

void EngineProfiler::reset() {
  acc_ = {};
  last_ = 0;
  sketch_ = nullptr;
  decision_ns_.clear();
  runs_ = events_ = decisions_ = elided_rounds_ = scanned_slots_ = 0;
  peak_live_ = peak_tracked_ = 0;
}

// --- ProfileReport ---

double ProfileReport::total_ns() const noexcept {
  double total = 0.0;
  for (const PhaseTotals& p : phases) total += p.ns;
  return total;
}

void ProfileReport::merge(const ProfileReport& other) {
  if (empty()) tick_ns = other.tick_ns;
  for (std::size_t i = 0; i < kEnginePhaseCount; ++i) {
    phases[i].count += other.phases[i].count;
    phases[i].ns += other.phases[i].ns;
  }
  for (const auto& [policy, sketch] : other.decision_ns) {
    decision_ns[policy].merge(sketch);
  }
  runs += other.runs;
  rounds += other.rounds;
  events += other.events;
  decisions += other.decisions;
  elided_rounds += other.elided_rounds;
  scanned_slots += other.scanned_slots;
  if (other.peak_live > peak_live) peak_live = other.peak_live;
  if (other.peak_tracked > peak_tracked) peak_tracked = other.peak_tracked;
}

void ProfileReport::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"tick_ns\": " << tick_ns << ",\n";
  out << "  \"runs\": " << runs << ",\n";
  out << "  \"rounds\": " << rounds << ",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"decisions\": " << decisions << ",\n";
  out << "  \"elided_rounds\": " << elided_rounds << ",\n";
  out << "  \"scanned_slots\": " << scanned_slots << ",\n";
  out << "  \"peak_live\": " << peak_live << ",\n";
  out << "  \"peak_tracked\": " << peak_tracked << ",\n";
  out << "  \"total_ns\": " << total_ns() << ",\n";
  out << "  \"phases\": {\n";
  for (std::size_t i = 0; i < kEnginePhaseCount; ++i) {
    out << "    \"" << to_string(static_cast<EnginePhase>(i))
        << "\": {\"count\": " << phases[i].count << ", \"ns\": "
        << phases[i].ns << "}" << (i + 1 < kEnginePhaseCount ? "," : "")
        << "\n";
  }
  out << "  },\n";
  out << "  \"decision_ns\": {\n";
  std::size_t k = 0;
  for (const auto& [policy, sketch] : decision_ns) {
    out << "    \"" << json::escape(policy)
        << "\": {\"count\": " << sketch.count() << ", \"mean\": "
        << sketch.mean() << ", \"p50\": " << sketch.quantile(0.5)
        << ", \"p90\": " << sketch.quantile(0.9) << ", \"p99\": "
        << sketch.quantile(0.99) << ", \"p999\": " << sketch.quantile(0.999)
        << ", \"max\": " << sketch.max() << "}"
        << (++k < decision_ns.size() ? "," : "") << "\n";
  }
  out << "  }\n";
  out << "}\n";
}

void ProfileReport::write_perfetto(std::ostream& out) const {
  // Chrome trace-event JSON: phases as end-to-end "X" slices (duration =
  // aggregate ns, timestamps in microseconds) plus one counter track with
  // the per-lap cost of each phase. Times are aggregates, not a timeline —
  // the track is a proportional cost breakdown, which is what a flame view
  // of a statistical profile can honestly show.
  out << "{\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"engine profile\"}}";
  out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"phase totals\"}}";
  double cursor_us = 0.0;
  for (std::size_t i = 0; i < kEnginePhaseCount; ++i) {
    const double dur_us = phases[i].ns / 1000.0;
    out << ",\n{\"name\":\"" << to_string(static_cast<EnginePhase>(i))
        << "\",\"cat\":\"engine_phase\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        << "\"ts\":" << cursor_us << ",\"dur\":" << dur_us
        << ",\"args\":{\"count\":" << phases[i].count << "}}";
    out << ",\n{\"name\":\"ns_per_lap\",\"ph\":\"C\",\"pid\":1,"
        << "\"ts\":" << cursor_us << ",\"args\":{\""
        << to_string(static_cast<EnginePhase>(i)) << "\":"
        << (phases[i].count > 0
                ? phases[i].ns / static_cast<double>(phases[i].count)
                : 0.0)
        << "}}";
    cursor_us += dur_us;
  }
  out << "\n]}\n";
}

void ProfileReport::to_metrics(MetricsRegistry& registry) const {
  for (std::size_t i = 0; i < kEnginePhaseCount; ++i) {
    const std::string base =
        std::string("engine.profile.phase.") +
        to_string(static_cast<EnginePhase>(i));
    registry.add(registry.counter(base + ".ns"),
                 static_cast<std::uint64_t>(phases[i].ns));
    registry.add(registry.counter(base + ".laps"), phases[i].count);
  }
  registry.add(registry.counter("engine.profile.runs"), runs);
  registry.add(registry.counter("engine.profile.rounds"), rounds);
  registry.add(registry.counter("engine.profile.scanned_slots"),
               scanned_slots);
  for (const auto& [policy, sketch] : decision_ns) {
    registry.sketch_merge(
        registry.sketch("engine.profile.decision_ns." + policy), sketch);
  }
}

void ProfileReport::print(std::ostream& out) const {
  const double total = total_ns();
  out << "engine profile: " << runs << " run(s), " << rounds << " round(s), "
      << events << " event(s), tick " << tick_ns << " ns\n";
  out << "  " << std::left << std::setw(14) << "phase" << std::right
      << std::setw(12) << "laps" << std::setw(14) << "total_ms"
      << std::setw(12) << "ns/lap" << std::setw(9) << "share" << "\n";
  for (std::size_t i = 0; i < kEnginePhaseCount; ++i) {
    const PhaseTotals& p = phases[i];
    const double per =
        p.count > 0 ? p.ns / static_cast<double>(p.count) : 0.0;
    const double share = total > 0.0 ? 100.0 * p.ns / total : 0.0;
    out << "  " << std::left << std::setw(14)
        << to_string(static_cast<EnginePhase>(i)) << std::right
        << std::setw(12) << p.count << std::setw(14) << std::fixed
        << std::setprecision(3) << p.ns / 1e6 << std::setw(12)
        << std::setprecision(1) << per << std::setw(8) << share << "%"
        << std::defaultfloat << "\n";
  }
  out << "  " << std::left << std::setw(14) << "total" << std::right
      << std::setw(12) << "" << std::setw(14) << std::fixed
      << std::setprecision(3) << total / 1e6 << std::defaultfloat << "\n";
  for (const auto& [policy, sketch] : decision_ns) {
    out << "  decision latency [" << policy << "] (ns): count="
        << sketch.count() << " mean=" << sketch.mean() << " p50="
        << sketch.quantile(0.5) << " p90=" << sketch.quantile(0.9)
        << " p99=" << sketch.quantile(0.99) << " p99.9="
        << sketch.quantile(0.999) << " max=" << sketch.max() << "\n";
  }
  out << "  diagnostics: elided_rounds=" << elided_rounds
      << " scanned_slots=" << scanned_slots << " (avg scan width "
      << (rounds > 0
              ? static_cast<double>(scanned_slots) /
                    static_cast<double>(rounds)
              : 0.0)
      << ") peak_live=" << peak_live << " peak_tracked=" << peak_tracked
      << "\n";
}

}  // namespace ecs::obs
