#include "workloads.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "exp/sweep.hpp"
#include "gauge.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "sched/factory.hpp"
#include "sim/batch.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/random_instances.hpp"

namespace perfbench {

using namespace ecs;

namespace {

// Workload sizes. A serial round (every world of the workload once) takes
// 1.5-5 s on a 4-core x86-64 VM, so a 35 s run times every world at least
// seven times; fewer worlds would let the seed move the simulated metrics
// more.
constexpr int kFig2bReps = 4;        // x 3 policies, n = 1000
constexpr int kFig2aReps = 32;       // x 2 policies, n = 4000, CCR 1
constexpr std::uint64_t kStreamWorlds = 4;  // x 2500 jobs each
constexpr std::uint64_t kStreamJobs = 2500;
constexpr std::uint64_t kStreamMaxLive = 64;
constexpr unsigned kMaxThreads = 4;

struct Point {
  std::string label;
  int index = -1;  ///< SweepOptions::point_index
  RandomInstanceConfig config;
};

Point random_point(const std::string& label, int index, int n, double ccr,
                   double load) {
  Point point{label, index, {}};
  point.config.n = n;
  point.config.ccr = ccr;
  point.config.load = load;
  return point;
}

Instance draw(const RandomInstanceConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  return make_random_instance(config, rng);
}

std::vector<PolicyAggregate> empty_aggregates(
    const std::vector<std::string>& policies, std::size_t groups) {
  std::vector<PolicyAggregate> aggregates(groups * policies.size());
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    aggregates[i].policy = policies[i % policies.size()];
  }
  return aggregates;
}

/// Digest and simulated summary of a set of sweep aggregates; `arrivals` is
/// the number of jobs the worlds were given.
void summarize(const std::vector<PolicyAggregate>& aggregates,
               std::uint64_t arrivals, Pass& pass) {
  Digest digest;
  obs::QuantileSketch stretch;
  double max_stretch_sum = 0.0;
  std::size_t worlds = 0;
  double events = 0.0;
  for (const PolicyAggregate& agg : aggregates) {
    digest.add(agg);
    stretch.merge(agg.stretch_sketch);
    max_stretch_sum += agg.max_stretch.sum();
    worlds += agg.max_stretch.count();
    events += agg.events.sum();
  }
  pass.digest = digest.hex();
  pass.worlds = worlds;
  pass.events = static_cast<std::uint64_t>(events);
  pass.sim.max_stretch = max_stretch_sum / static_cast<double>(worlds);
  pass.sim.stretch_p99 = stretch.quantile(0.99);
  pass.sim.served_fraction = static_cast<double>(stretch.count()) /
                             static_cast<double>(arrivals);
}

/// Books the finished worlds of a serial pass: rep-0 validation and metrics
/// exactly as run_sweep_point does them, the aggregate fold, the digests and
/// (when traced) each world's child spans.
class PassBook {
 public:
  PassBook(const std::vector<std::string>& policies, std::size_t groups,
           SpanLog* log)
      : aggregates_(empty_aggregates(policies, groups)), log_(log) {}

  /// Marks the start of a world (before its instance is generated); a
  /// timed world first gauges the host's speed.
  void begin(bool timed) {
    if (timed) pass_.gauge_s.push_back(gauge_seconds());
    gauged_ = timed;
    world_t0_ = now_ns();
  }

  /// A materialized world; `aggregate` indexes (group, policy).
  void world(std::size_t aggregate, bool validate, const Instance& instance,
             const SimResult& result, double wall_s) {
    ScheduleMetrics metrics;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    if (validate) {
      require_valid_schedule(instance, result.schedule, FaultPlan{});
      t1 = now_ns();
      metrics = compute_metrics(instance, result.schedule);
    } else {
      metrics = metrics_from_completions(instance, result.completions);
    }
    if (log_ != nullptr) {
      WorldSpan& span = log_->current();
      span.validate_ns = static_cast<double>(t1 - t0);
      span.metrics_ns = static_cast<double>(now_ns() - t1);
    }
    fold_world(aggregates_[aggregate], metrics, result.stats, wall_s);
    arrivals_ += instance.jobs.size();
    count(result, wall_s);
  }

  /// A streaming world: no completions recorded, so no metrics.
  void stream_world(const SimResult& result, double wall_s) {
    arrivals_ += result.stats.admitted + result.stats.rejections;
    count(result, wall_s);
  }

  /// The pass's digest is over the sweep aggregates when `aggregate_digest`
  /// (what the timed sweep round can see), else over the worlds.
  Pass finish(bool aggregate_digest) {
    if (gauged_) pass_.gauge_s.push_back(gauge_seconds());
    pass_.world_digest = worlds_.hex();
    if (!aggregates_.empty()) summarize(aggregates_, arrivals_, pass_);
    if (!aggregate_digest) pass_.digest = pass_.world_digest;
    return pass_;
  }

  Pass& pass() { return pass_; }

 private:
  void count(const SimResult& result, double wall_s) {
    worlds_.add(result);
    pass_.world_s.push_back(static_cast<double>(now_ns() - world_t0_) * 1e-9);
    pass_.service_s += wall_s;
    pass_.events += result.stats.events;
    pass_.decisions += result.stats.decisions;
    pass_.reassignments += result.stats.reassignments;
    pass_.jobs += result.stats.admitted;
    pass_.peak_live = std::max(pass_.peak_live, result.stats.peak_live);
    ++pass_.worlds;
    if (log_ != nullptr) {
      WorldSpan& span = log_->current();
      span.service_ns = wall_s * 1e9;
      span.events = result.stats.events;
      span.decisions = result.stats.decisions;
      log_->close();
    }
  }

  std::vector<PolicyAggregate> aggregates_;
  SpanLog* log_;
  Digest worlds_;
  std::uint64_t arrivals_ = 0;
  std::int64_t world_t0_ = 0;
  bool gauged_ = false;
  Pass pass_;
};

std::unique_ptr<Policy> make_probed_policy(const std::string& name,
                                           SpanLog* log) {
  std::unique_ptr<Policy> policy = make_policy(name);
  if (log == nullptr) return policy;
  return std::make_unique<TimedPolicy>(std::move(policy), *log);
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Paper sweep points: timed one world at a time on a one-thread
/// BatchEngine (the driver under run_sweep_point), and run through
/// run_sweep_point on several threads for the parallel round.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::vector<Point> points, std::vector<std::string> policies,
                int reps, std::uint64_t seed, FirstWorld& first)
      : points_(std::move(points)),
        policies_(std::move(policies)),
        reps_(reps),
        seed_(seed),
        threads_(std::min(default_thread_count(), kMaxThreads)),
        first_(&first) {}

  Pass timed_round() override {
    const std::int64_t t0 = now_ns();
    Pass pass = serial(nullptr, true);
    pass.wall_s = seconds_since(t0);
    return pass;
  }

  Pass parallel_round() override {
    std::vector<PolicyAggregate> aggregates;
    std::uint64_t arrivals = 0;
    const std::int64_t t0 = now_ns();
    for (const Point& point : points_) {
      SweepOptions options;
      options.replications = reps_;
      options.base_seed = seed_;
      options.threads = threads_;
      options.point_index = point.index;
      const InstanceFactory factory = [&point](std::uint64_t seed) {
        return draw(point.config, seed);
      };
      SweepPointResult result =
          run_sweep_point(point.label, factory, policies_, options);
      for (PolicyAggregate& agg : result.per_policy) {
        aggregates.push_back(std::move(agg));
      }
      arrivals += static_cast<std::uint64_t>(point.config.n) *
                  static_cast<std::uint64_t>(reps_) * policies_.size();
    }
    Pass pass;
    pass.wall_s = seconds_since(t0);
    summarize(aggregates, arrivals, pass);
    return pass;
  }

  Pass replay(SpanLog* log) override { return serial(log, false); }

  std::uint64_t world_count() const override {
    return points_.size() * static_cast<std::uint64_t>(reps_) *
           policies_.size();
  }
  unsigned threads() const override { return threads_; }

 private:
  /// Every world once on one thread holding one world at a time, so each
  /// world's wall_seconds is its service time.
  Pass serial(SpanLog* log, bool timed) {
    const std::size_t n_policies = policies_.size();
    const std::size_t per_point = static_cast<std::size_t>(reps_) * n_policies;
    PassBook book(policies_, points_.size(), log);
    BatchOptions options;
    options.threads = 1;
    options.worlds_per_thread = 1;  // wall_seconds is then service time
    options.profile = log != nullptr;
    BatchEngine batch(
        n_policies,
        [&](std::size_t p) { return make_probed_policy(policies_[p], log); },
        options);
    batch.run(
        points_.size() * per_point,
        [&](std::size_t index, Instance& instance, WorldSetup& setup) {
          const Point& point = points_[index / per_point];
          const auto rep = static_cast<int>(index % per_point / n_policies);
          setup.policy = index % n_policies;
          if (timed) first_->stamp();
          book.begin(timed);
          if (log != nullptr) log->open(index, policies_[setup.policy]);
          const std::int64_t t0 = now_ns();
          instance = draw(point.config,
                          sweep_seed(seed_, point.index, point.label, rep));
          if (log != nullptr) {
            log->current().instance_gen_ns =
                static_cast<double>(now_ns() - t0);
          }
          // The engine configuration run_sweep_point gives each world.
          setup.config.record_schedule = rep == 0;
          setup.config.time_policy = false;
        },
        [&](std::size_t index, const Instance& instance, SimResult& result,
            double wall_s) {
          const bool rep0 = index % per_point < n_policies;
          book.world(index / per_point * n_policies + index % n_policies, rep0,
                     instance, result, wall_s);
        });
    if (log != nullptr) book.pass().profile = batch.profile_report();
    return book.finish(true);
  }

  std::vector<Point> points_;
  std::vector<std::string> policies_;
  int reps_;
  std::uint64_t seed_;
  unsigned threads_;
  FirstWorld* first_;
};

/// The Fig. 2(a) default point (load 0.05, CCR 1) run serially through
/// simulate() with the library's observers attached: an invariant watchdog
/// (which implies provenance), a shared metrics registry and an engine
/// profiler.
class ObservedWorkload final : public Workload {
 public:
  ObservedWorkload(Point point, std::vector<std::string> policies, int reps,
                   std::uint64_t seed, FirstWorld& first)
      : point_(std::move(point)),
        policies_(std::move(policies)),
        reps_(reps),
        seed_(seed),
        first_(&first) {}

  Pass timed_round() override {
    const std::int64_t t0 = now_ns();
    Pass pass = run(nullptr, true, &profiler_);
    pass.wall_s = seconds_since(t0);
    return pass;
  }

  Pass replay(SpanLog* log) override {
    if (log == nullptr) return run(nullptr, false, nullptr);
    obs::EngineProfiler profiler;
    Pass pass = run(log, true, &profiler);
    pass.profile = profiler.report();
    return pass;
  }

  std::uint64_t world_count() const override {
    return static_cast<std::uint64_t>(reps_) * policies_.size();
  }
  bool observed() const override { return true; }

 private:
  Pass run(SpanLog* log, bool observers, obs::EngineProfiler* profiler) {
    PassBook book(policies_, 1, log);
    std::vector<std::unique_ptr<Policy>> table;
    for (const std::string& name : policies_) {
      table.push_back(make_probed_policy(name, log));
    }
    std::uint64_t records = 0;
    for (int rep = 0; rep < reps_; ++rep) {
      for (std::size_t p = 0; p < policies_.size(); ++p) {
        const std::size_t index =
            static_cast<std::size_t>(rep) * policies_.size() + p;
        const bool timed = log == nullptr && observers;
        if (timed) first_->stamp();
        book.begin(timed);
        if (log != nullptr) log->open(index, policies_[p]);
        const std::int64_t t0 = now_ns();
        const Instance instance = draw(
            point_.config, sweep_seed(seed_, point_.index, point_.label, rep));
        if (log != nullptr) {
          log->current().instance_gen_ns = static_cast<double>(now_ns() - t0);
        }
        EngineConfig config;
        config.record_schedule = rep == 0;
        if (observers) {
          config.watchdog = &watchdog_;
          config.metrics = &registry_;
          config.profiler = profiler;
        }
        const std::int64_t t1 = now_ns();
        const SimResult result = simulate(instance, *table[p], config);
        const double wall_s = seconds_since(t1);
        if (observers) {
          if (!watchdog_.ok()) {
            throw std::runtime_error(
                "invariant watchdog flagged " +
                std::to_string(watchdog_.violation_count()) +
                " violation(s) in world " + std::to_string(index));
          }
          records += watchdog_.records_seen();
        }
        book.world(p, rep == 0, instance, result, wall_s);
      }
    }
    Pass pass = book.finish(false);
    pass.watchdog_records = records;
    return pass;
  }

  Point point_;
  std::vector<std::string> policies_;
  int reps_;
  std::uint64_t seed_;
  FirstWorld* first_;
  obs::InvariantWatchdog watchdog_;
  obs::MetricsRegistry registry_;  ///< shared by every timed world
  obs::EngineProfiler profiler_;   ///< shared by every timed world
};

/// Long simulate_stream worlds under sustained overload. Several streams
/// rather than one, so the max-stretch (one extreme per world) is averaged
/// over more than a single draw.
class StreamWorkload final : public Workload {
 public:
  StreamWorkload(std::uint64_t seed, FirstWorld& first)
      : seed_(derive_seed(seed, hash_tag("overload"))), first_(&first) {
    base_.platform = make_random_platform(RandomInstanceConfig{});
    config_.record_schedule = false;
    config_.record_completions = false;
    config_.record_admission = false;
    config_.admission.max_live = kStreamMaxLive;
    config_.admission.rule = AdmissionRule::kRejectNewest;
  }

  Pass timed_round() override {
    const std::int64_t t0 = now_ns();
    Pass pass = run(nullptr, nullptr, true);
    pass.wall_s = seconds_since(t0);
    pass.sim.stretch_p99 = stretch_p99(pass.digest);
    return pass;
  }

  Pass replay(SpanLog* log) override { return run(log, nullptr, false); }

  std::uint64_t world_count() const override { return kStreamWorlds; }

 private:
  static constexpr const char* kPolicy = "ssf-edf";

  Pass run(SpanLog* log, obs::TraceSink* sink, bool timed) {
    PassBook book({}, 0, log);
    const std::unique_ptr<Policy> policy = make_probed_policy(kPolicy, log);
    // Only traced passes profile (constructing one calibrates the clock).
    std::optional<obs::EngineProfiler> profiler;
    if (log != nullptr) profiler.emplace();
    double max_stretch_sum = 0.0;
    std::uint64_t completed = 0;
    for (std::uint64_t w = 0; w < kStreamWorlds; ++w) {
      if (timed) first_->stamp();
      book.begin(timed);
      if (log != nullptr) log->open(w, kPolicy);
      const std::int64_t t0 = now_ns();
      ArrivalConfig acfg;
      acfg.family = ArrivalFamily::kPoisson;
      acfg.n = static_cast<std::int64_t>(kStreamJobs);
      acfg.rate = 4.0;
      acfg.seed = derive_seed(seed_, w);
      acfg.shape.edge_count = base_.platform.edge_count();
      const std::unique_ptr<ArrivalStream> arrivals = make_arrival_stream(acfg);
      std::optional<TimedArrivals> probed;
      if (log != nullptr) {
        log->current().instance_gen_ns = static_cast<double>(now_ns() - t0);
        probed.emplace(*arrivals, *log);
      }
      EngineConfig config = config_;
      config.trace = sink;
      if (profiler) config.profiler = &*profiler;
      const std::int64_t t1 = now_ns();
      const SimResult result = simulate_stream(
          base_, probed ? static_cast<ArrivalStream&>(*probed) : *arrivals,
          *policy, config);
      const double wall_s = seconds_since(t1);
      check(result.stats);
      book.stream_world(result, wall_s);
      max_stretch_sum += result.stats.max_stretch;
      completed += result.stats.completed;
    }
    Pass pass = book.finish(false);
    pass.sim.max_stretch = max_stretch_sum / kStreamWorlds;
    pass.sim.served_fraction = static_cast<double>(completed) /
                               static_cast<double>(kStreamWorlds * kStreamJobs);
    if (profiler) pass.profile = profiler->report();
    return pass;
  }

  /// Conservation identities of admission control.
  static void check(const SimStats& s) {
    if (s.admitted + s.rejections != kStreamJobs) {
      throw std::runtime_error("stream: admitted + rejected != arrivals");
    }
    if (s.completed + s.sheds != s.admitted) {
      throw std::runtime_error("stream: completed + shed != admitted");
    }
    if (s.peak_live > kStreamMaxLive) {
      throw std::runtime_error("stream: peak_live exceeds max_live");
    }
  }

  /// The streams record no completions, so their stretch tail comes from
  /// one untimed reference pass with a completion sink attached, which must
  /// reproduce the timed pass's digest.
  double stretch_p99(const std::string& digest) {
    if (!p99_) {
      StretchTail tail;
      const Pass reference = run(nullptr, &tail, false);
      if (reference.digest != digest) {
        throw std::runtime_error("stream: reference pass diverged");
      }
      p99_ = tail.sketch().quantile(0.99);
    }
    return *p99_;
  }

  std::uint64_t seed_;
  Instance base_;
  EngineConfig config_;
  std::optional<double> p99_;
  FirstWorld* first_;
};

}  // namespace

void FirstWorld::stamp() {
  if (!stamped_.exchange(true)) {
    seconds_ = static_cast<double>(now_ns()) * 1e-9;
  }
  if (stop_there_) throw SetupReached{};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, FirstWorld& first) {
  if (name == "fig2b_load05") {
    return std::make_unique<SweepWorkload>(
        std::vector<Point>{random_point("load=0.5", 0, 1000, 1.0, 0.5)},
        std::vector<std::string>{"greedy", "srpt", "ssf-edf"}, kFig2bReps,
        seed, first);
  }
  if (name == "stream_overload") {
    return std::make_unique<StreamWorkload>(seed, first);
  }
  if (name == "fig2a_observed") {
    return std::make_unique<ObservedWorkload>(
        random_point("ccr=1", 1, 4000, 1.0, 0.05),
        std::vector<std::string>{"edge-only", "srpt"}, kFig2aReps, seed,
        first);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
