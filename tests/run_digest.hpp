// run_digest.hpp - The run corpus of the bit-identity suites.
//
// One header holds what the equivalence suites (test_policy_equivalence,
// test_engine_equivalence, test_streaming, test_profiler) check runs with:
//   * the seeded world family: random worlds with outages on odd seeds and
//     unannounced faults on most, plus the hetero-clouds, near-ties and
//     margin-chain worlds (corpus_world);
//   * one runner, run_variant, that runs a world traced into memory;
//   * FNV-1a digests of a world and of a run;
//   * the recorded table of every factory policy on every corpus world
//     under the default configuration (policy_digests);
//   * two checks: expect_recorded_run pins a run to its cell's recorded
//     row and, on drift, writes the run's trace to drift/<cell>.jsonl;
//     expect_same_run pins a run to another run of the same cell and, on a
//     mismatch, names the first differing completion, stat field, log
//     entry, schedule entry or trace record.
// Each suite is written as "every variant of a cell matches the cell's one
// recorded row": the first variant is checked against the row, every other
// one against the first.
//
// A run digest covers everything a run produces that is reproducible:
// completions, SimStats (all but the wall-time policy_seconds), the fault
// and admission logs, the recorded schedule (final and abandoned runs) and
// the trace record stream. A world digest covers the generated input:
// platform, jobs, outage calendar and fault plan. Tables store both, so a
// host whose libm makes the generators draw a different world reports a
// generator mismatch instead of schedule drift.
//
// The recorded values hold for every build of the tree: the top-level
// CMakeLists.txt compiles with -ffp-contract=off, so a -DECS_NATIVE=ON
// build on an FMA host does not fuse multiply-adds either.
//
// Updating: when a behaviour change is intended, the failing check prints
// the replacement table row; paste it over the old one and let the commit
// document the change.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/schedule.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"
#include "workloads/outages.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {

// --------------------------------------------------------- the world family

struct World {
  Instance instance;
  FaultPlan faults;
};

/// A random world family: 150 jobs on 3 clouds and 2+2 edges, load 0.1 on
/// even seeds and `odd_load` on odd ones, CCR 5 on multiples of 3, an
/// outage calendar on odd seeds and a fault plan (crashes and message
/// losses) on seeds not divisible by 3. The instance, outages and faults
/// draw from seed_base + seed, seed_base + 1000 + seed and seed_base +
/// 2000 + seed.
struct RandomFamily {
  std::uint64_t seed_base;
  double odd_load;
};

/// The worlds of the policy, engine and profiler suites.
inline constexpr RandomFamily kEquivalenceFamily{1000, 0.3};
/// The worlds of the streaming suite.
inline constexpr RandomFamily kStreamingFamily{7000, 0.4};

inline FaultConfig corpus_fault_config() {
  FaultConfig cfg;
  cfg.crash_rate = 0.002;
  cfg.mean_repair = 20.0;
  cfg.loss_rate = 0.005;
  cfg.horizon = 500.0;
  return cfg;
}

inline World random_world(int seed,
                          const RandomFamily& family = kEquivalenceFamily) {
  World w;
  RandomInstanceConfig cfg;
  cfg.n = 150;
  cfg.cloud_count = 3;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = seed % 2 == 0 ? 0.1 : family.odd_load;
  cfg.ccr = seed % 3 == 0 ? 5.0 : 1.0;
  Rng rng(family.seed_base + seed);
  w.instance = make_random_instance(cfg, rng);
  if (seed % 2 == 1) {
    OutageConfig outage_cfg;
    outage_cfg.fraction = 0.1;
    outage_cfg.mean_duration = 10.0;
    outage_cfg.horizon = 500.0;
    Rng outage_rng(family.seed_base + 1000 + seed);
    w.instance.cloud_outages =
        make_cloud_outages(cfg.cloud_count, outage_cfg, outage_rng);
  }
  if (seed % 3 != 0) {
    Rng fault_rng(family.seed_base + 2000 + seed);
    w.faults =
        make_fault_plan(cfg.cloud_count, corpus_fault_config(), fault_rng);
  }
  return w;
}

/// Corpus worlds: the random seeds 0..kRandomWorlds-1, then three worlds
/// that each pin one branch of the cached Greedy/SRPT pick loops or of the
/// best-target kernel.
inline constexpr int kRandomWorlds = 5;
/// Mixed cloud speeds {0.5, 1, 1, 2}: the best-target kernel's
/// mixed-speed fill (one division per cloud).
inline constexpr int kHeteroCloudWorld = kRandomWorlds;
/// Every job duplicated (equal origin, release and amounts): the pick
/// loops' kDecisionMargin tie-breaks, which follow scan order.
inline constexpr int kNearTieWorld = kRandomWorlds + 1;
/// Three copies of every job, each copy's edge estimate and stretch
/// 0.3-0.9 kDecisionMargin from the previous copy's: chains of ties that
/// are not transitive, where the pick loops must fall back to the scan.
inline constexpr int kMarginChainWorld = kRandomWorlds + 2;
inline constexpr int kWorldCount = kRandomWorlds + 3;

inline World corpus_world(int world) {
  if (world < kRandomWorlds) return random_world(world);
  World w;
  RandomInstanceConfig cfg;
  cfg.slow_edges = 2;
  cfg.fast_edges = 2;
  cfg.load = 0.3;
  Rng rng(1000 + world);
  if (world == kHeteroCloudWorld) {
    cfg.n = 150;
    cfg.cloud_count = 4;
    w.instance = make_random_instance(cfg, rng);
    w.instance.platform =
        Platform(w.instance.platform.edge_speeds(),
                 std::vector<double>{0.5, 1.0, 1.0, 2.0});
  } else if (world == kNearTieWorld) {
    cfg.n = 75;
    cfg.cloud_count = 3;
    const Instance base = make_random_instance(cfg, rng);
    w.instance.platform = base.platform;
    for (const Job& job : base.jobs) {
      for (int copy = 0; copy < 2; ++copy) {
        Job twin = job;
        twin.id = w.instance.job_count();
        w.instance.jobs.push_back(twin);
      }
    }
  } else {
    cfg.n = 50;
    cfg.cloud_count = 3;
    const Instance base = make_random_instance(cfg, rng);
    w.instance.platform = base.platform;
    for (const Job& job : base.jobs) {
      // Copy c finishes c * step later on its edge and is released
      // (2 - c) * step * (best_time - 1) later, so from copy to copy the
      // edge estimate and the edge stretch (done - release) / best_time
      // both grow by about `step`.
      const double step = rng.uniform(0.3, 0.9) * kDecisionMargin;
      const double speed = base.platform.edge_speed(job.origin);
      const double lead = std::max(base.platform.best_time(job) - 1.0, 0.0);
      for (int copy = 0; copy < 3; ++copy) {
        Job twin = job;
        twin.id = w.instance.job_count();
        twin.work += copy * step * speed;
        twin.release += (2 - copy) * step * lead;
        w.instance.jobs.push_back(twin);
      }
    }
  }
  Rng fault_rng(3000 + world);
  w.faults = make_fault_plan(w.instance.platform.cloud_count(),
                             corpus_fault_config(), fault_rng);
  return w;
}

/// "edge-only", 3 -> "edge_only_seed3"; the special worlds by name
/// ("edge_only_hetero_clouds"). Test and digest-table cell names.
inline std::string cell_name(std::string policy_name, int world) {
  std::replace(policy_name.begin(), policy_name.end(), '-', '_');
  if (world == kHeteroCloudWorld) return policy_name + "_hetero_clouds";
  if (world == kNearTieWorld) return policy_name + "_near_ties";
  if (world == kMarginChainWorld) return policy_name + "_margin_chain";
  return policy_name + "_seed" + std::to_string(world);
}

// ------------------------------------------------------------------- a run

/// Everything one run leaves behind.
struct Variant {
  SimResult result;
  std::vector<obs::TraceRecord> trace;
};

/// Runs `world` under `config` with the world's fault plan, traced into
/// memory unless `traced` is false.
inline Variant run_variant(const World& world, Policy& policy,
                           EngineConfig config = {}, bool traced = true) {
  config.faults = world.faults;
  obs::MemoryTraceSink sink;
  if (traced) config.trace = &sink;
  Variant v;
  v.result = simulate(world.instance, policy, config);
  v.trace = sink.records();
  return v;
}

// ----------------------------------------------------------------- digests

class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }

  /// One scalar by its exact bytes (doubles by their bit pattern).
  template <class T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void add(T v) {
    add_bytes(&v, sizeof v);
  }

  void add(const IntervalSet& set) {
    add(set.size());
    for (const Interval& iv : set.intervals()) {
      add(iv.begin);
      add(iv.end);
    }
  }

  void add(const RunRecord& run) {
    add(run.alloc);
    add(run.exec);
    add(run.uplink);
    add(run.downlink);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Platform, jobs, outage calendar and fault plan.
inline std::uint64_t world_digest(const Instance& instance,
                                  const FaultPlan& faults) {
  Fnv1a d;
  const Platform& platform = instance.platform;
  d.add(platform.edge_speeds().size());
  for (const double s : platform.edge_speeds()) d.add(s);
  d.add(platform.cloud_speeds().size());
  for (const double s : platform.cloud_speeds()) d.add(s);
  d.add(instance.jobs.size());
  for (const Job& job : instance.jobs) {
    d.add(job.id);
    d.add(job.origin);
    d.add(job.work);
    d.add(job.release);
    d.add(job.up);
    d.add(job.down);
  }
  d.add(instance.cloud_outages.size());
  for (const IntervalSet& outages : instance.cloud_outages) d.add(outages);
  d.add(faults.faults.size());
  for (const FaultSpec& f : faults.faults) {
    d.add(f.kind);
    d.add(f.cloud);
    d.add(f.begin);
    d.add(f.end);
  }
  return d.value();
}

inline std::uint64_t world_digest(const World& world) {
  return world_digest(world.instance, world.faults);
}

struct StatField {
  const char* name;
  std::uint64_t SimStats::*field;
};

/// The reproducible counters of SimStats, in digest order.
inline constexpr StatField kStatFields[] = {
    {"events", &SimStats::events},
    {"decisions", &SimStats::decisions},
    {"reassignments", &SimStats::reassignments},
    {"fault_aborts", &SimStats::fault_aborts},
    {"message_losses", &SimStats::message_losses},
    {"preemptions", &SimStats::preemptions},
    {"uplink_retransmits", &SimStats::uplink_retransmits},
    {"downlink_retransmits", &SimStats::downlink_retransmits},
    {"max_queue_depth", &SimStats::max_queue_depth},
    {"peak_live", &SimStats::peak_live},
    {"peak_tracked", &SimStats::peak_tracked},
    {"admitted", &SimStats::admitted},
    {"completed", &SimStats::completed},
    {"rejections", &SimStats::rejections},
    {"sheds", &SimStats::sheds},
};

/// Walks a run in digest order — completions, stats, fault and admission
/// logs, schedule and trace — calling visit(name, parts...) once per item.
/// name() spells the item out ("completion of job 7", "stats.events",
/// "trace record 812"); parts are the scalars it contributes.
template <class Visit>
void walk_run(const SimResult& result,
              const std::vector<obs::TraceRecord>& trace, Visit&& visit) {
  const auto named = [](const char* what, const char* field = "") {
    return [what, field] { return std::string(what).append(field); };
  };
  const auto nth = [](const char* what, std::size_t i) {
    return [what, i] {
      return std::string(what).append(" ").append(std::to_string(i));
    };
  };
  visit(named("completion count"), result.completions.size());
  for (std::size_t i = 0; i < result.completions.size(); ++i) {
    visit(nth("completion of job", i), result.completions[i]);
  }
  for (const StatField& f : kStatFields) {
    visit(named("stats.", f.name), result.stats.*f.field);
  }
  visit(named("stats.max_stretch"), result.stats.max_stretch);
  visit(named("fault log length"), result.fault_log.size());
  for (std::size_t i = 0; i < result.fault_log.size(); ++i) {
    const Event& e = result.fault_log[i];
    visit(nth("fault log entry", i), e.kind, e.job, e.time, e.cloud);
  }
  visit(named("admission log length"), result.admission_log.size());
  for (std::size_t i = 0; i < result.admission_log.size(); ++i) {
    const AdmissionRecord& a = result.admission_log[i];
    visit(nth("admission log entry", i), a.job, a.time, a.reason, a.shed);
  }
  const std::vector<JobSchedule>& jobs = result.schedule.jobs();
  visit(named("schedule job count"), jobs.size());
  for (std::size_t id = 0; id < jobs.size(); ++id) {
    visit(nth("final run of job", id), jobs[id].final_run);
    visit(nth("abandoned run count of job", id), jobs[id].abandoned.size());
    for (const RunRecord& run : jobs[id].abandoned) {
      visit(nth("an abandoned run of job", id), run);
    }
  }
  visit(named("trace length"), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceRecord& r = trace[i];
    visit(nth("trace record", i), r.kind, r.point, r.job, r.run, r.alloc,
          r.origin, r.cloud, r.begin, r.end, r.value, r.reason);
  }
}

/// Completions, stats, fault and admission logs, schedule and trace.
inline std::uint64_t run_digest(const SimResult& result,
                                const std::vector<obs::TraceRecord>& trace) {
  Fnv1a d;
  walk_run(result, trace, [&](auto&&, const auto&... parts) {
    (d.add(parts), ...);
  });
  return d.value();
}

inline std::uint64_t run_digest(const Variant& v) {
  return run_digest(v.result, v.trace);
}

// ---------------------------------------------------------- run comparison

namespace detail {

/// One walked item of a run: its name, its scalars as text, their digest.
struct RunItem {
  std::string name;
  std::string text;
  std::uint64_t digest;
};

inline void print_part(std::ostream& os, const RunRecord& run) {
  os << "alloc " << run.alloc << " exec " << to_string(run.exec) << " up "
     << to_string(run.uplink) << " down " << to_string(run.downlink);
}

template <class T>
void print_part(std::ostream& os, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    os << static_cast<long long>(v);
  } else {
    os << v;
  }
}

inline std::vector<RunItem> run_items(const Variant& v) {
  std::vector<RunItem> items;
  walk_run(v.result, v.trace, [&](auto&& name, const auto&... parts) {
    Fnv1a d;
    (d.add(parts), ...);
    std::ostringstream text;
    text.precision(17);
    const char* sep = "";
    ((text << sep, print_part(text, parts), sep = ", "), ...);
    items.push_back(RunItem{name(), text.str(), d.value()});
  });
  return items;
}

/// The first item of `a` that differs from `b`'s, both spelled out.
inline std::string first_difference(const Variant& a, const Variant& b) {
  const std::vector<RunItem> x = run_items(a);
  const std::vector<RunItem> y = run_items(b);
  for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
    if (x[i].name != y[i].name) {
      return x[i].name + " (" + x[i].text + ") vs " + y[i].name + " (" +
             y[i].text + ")";
    }
    if (x[i].digest != y[i].digest) {
      return x[i].name + ": " + x[i].text + " vs " + y[i].text;
    }
  }
  return "no single item differs";
}

}  // namespace detail

/// `got` must be the same run as `want`, bit for bit. On a mismatch the
/// failure names the first differing completion, stat field, log entry,
/// schedule entry or trace record.
inline void expect_same_run(const Variant& got, const Variant& want,
                            const std::string& what) {
  if (run_digest(got) == run_digest(want)) return;
  ADD_FAILURE() << what << " differs from the run it is compared with; "
                << "first difference (this run vs that): "
                << detail::first_difference(got, want);
}

// ---------------------------------------------------------- recorded rows

struct DigestRow {
  const char* cell;
  std::uint64_t world;
  std::uint64_t run;
};

/// A row pinning one world under both front doors: the run digest of
/// simulate() and that of simulate_stream() over InstanceArrivalStream.
struct StreamDigestRow {
  const char* cell;
  std::uint64_t world;
  std::uint64_t run;
  std::uint64_t stream_run;
};

namespace detail {

/// Writes `v`'s trace as JSONL to drift/<name>.jsonl under the working
/// directory and returns the path. The same file from two builds diffs
/// down to the first differing record.
inline std::string write_drift_trace(const std::string& name,
                                     const Variant& v) {
  std::filesystem::create_directories("drift");
  const std::string path = "drift/" + name + ".jsonl";
  std::ofstream out(path);
  obs::JsonlTraceSink sink(out);
  for (const obs::TraceRecord& rec : v.trace) sink.record(rec);
  return path;
}

inline void expect_recorded_runs(const std::string& cell, bool found,
                                 std::uint64_t recorded_world,
                                 std::span<const std::uint64_t> recorded,
                                 std::uint64_t world,
                                 std::span<const Variant* const> runs) {
  std::vector<std::uint64_t> digests;
  for (const Variant* run : runs) digests.push_back(run_digest(*run));
  std::string row = "{\"" + cell + "\"";
  char hex[24];
  std::snprintf(hex, sizeof hex, ", 0x%016llx",
                static_cast<unsigned long long>(world));
  row += hex;
  for (const std::uint64_t digest : digests) {
    std::snprintf(hex, sizeof hex, ", 0x%016llx",
                  static_cast<unsigned long long>(digest));
    row += hex;
  }
  row += "},";
  if (!found) {
    ADD_FAILURE() << "no recorded digest for " << cell << "; add the row:\n    "
                  << row;
    return;
  }
  if (recorded_world != world) {
    ADD_FAILURE() << "generator mismatch in " << cell
                  << ": the generated world differs from the recorded one "
                     "(a libm or generator change, not schedule drift); "
                     "the run digest was not compared. Current row:\n    "
                  << row;
    return;
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (recorded[i] == digests[i]) continue;
    const std::string name =
        i == 0 ? cell : cell + ".column" + std::to_string(i + 1);
    EXPECT_EQ(recorded[i], digests[i])
        << "run digest drift in " << cell << " (column " << i + 1
        << "); its trace is in " << write_drift_trace(name, *runs[i])
        << ". If the change is intended, replace the row with:\n    "
        << row;
  }
}

template <class Row>
const Row* find_row(std::span<const Row> table, const std::string& cell) {
  for (const Row& r : table) {
    if (cell == r.cell) return &r;
  }
  return nullptr;
}

}  // namespace detail

/// Checks one cell's run against its table row. On a missing row or a
/// mismatch the failure message carries the replacement row; on a
/// mismatch it also names the file the run's trace was written to.
inline void expect_recorded_run(std::span<const DigestRow> table,
                                const std::string& cell, std::uint64_t world,
                                const Variant& run) {
  const Variant* const runs[] = {&run};
  const DigestRow* row = detail::find_row(table, cell);
  const std::uint64_t recorded[] = {row != nullptr ? row->run : 0};
  detail::expect_recorded_runs(cell, row != nullptr,
                               row != nullptr ? row->world : 0, recorded,
                               world, runs);
}

/// The same check for a row of both front doors.
inline void expect_recorded_run(std::span<const StreamDigestRow> table,
                                const std::string& cell, std::uint64_t world,
                                const Variant& run, const Variant& stream_run) {
  const Variant* const runs[] = {&run, &stream_run};
  const StreamDigestRow* row = detail::find_row(table, cell);
  const std::uint64_t recorded[] = {row != nullptr ? row->run : 0,
                                    row != nullptr ? row->stream_run : 0};
  detail::expect_recorded_runs(cell, row != nullptr,
                               row != nullptr ? row->world : 0, recorded,
                               world, runs);
}

// ------------------------------------------------------- the corpus table

/// Every factory policy on every corpus world, traced, default engine
/// configuration (schedule recorded, no admission control): {cell, world
/// digest, run digest}. PolicyEquivalence checks its three variants per
/// cell against these rows; EngineEquivalence and HotPathEquivalence check
/// theirs against the rows of the random worlds they share.
inline std::span<const DigestRow> policy_digests() {
  static constexpr DigestRow kRows[] = {
      {"edge_only_seed0", 0x112d9b428b594f29, 0xe4bfe02c63104afa},
      {"edge_only_seed1", 0x213514a4ab09e484, 0x3920cd9e20b2cab3},
      {"edge_only_seed2", 0x061db414eab6130a, 0xd5cfe6259ede6597},
      {"edge_only_seed3", 0xb4bda944aee503e1, 0x7b4f43360c2404d6},
      {"edge_only_seed4", 0x9e2559d1414a4da9, 0xb150fbe41aa3442d},
      {"edge_only_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0xd2a026861ee8d4c3},
      {"edge_only_near_ties", 0x379e2186e54bce09, 0xb7f0135512f9f0ff},
      {"edge_only_margin_chain", 0x9a967abfe8680aa5, 0x5285de1dbbd9835e},
      {"greedy_seed0", 0x112d9b428b594f29, 0x9b9f2ce2b0ad2e1a},
      {"greedy_seed1", 0x213514a4ab09e484, 0x69cfdb2226d8acf2},
      {"greedy_seed2", 0x061db414eab6130a, 0x03df58f1206f6011},
      {"greedy_seed3", 0xb4bda944aee503e1, 0x112f1ebfe6e85550},
      {"greedy_seed4", 0x9e2559d1414a4da9, 0x14f94c416cf40a57},
      {"greedy_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0x3c902a8956bba67e},
      {"greedy_near_ties", 0x379e2186e54bce09, 0x54d72ccc1058094e},
      {"greedy_margin_chain", 0x9a967abfe8680aa5, 0x216d49928a1f3b8d},
      {"srpt_seed0", 0x112d9b428b594f29, 0xed533a72bfa4f339},
      {"srpt_seed1", 0x213514a4ab09e484, 0xa5ef998a83acbf0e},
      {"srpt_seed2", 0x061db414eab6130a, 0xc824b52700e403cf},
      {"srpt_seed3", 0xb4bda944aee503e1, 0x5adf39813c1cf2e6},
      {"srpt_seed4", 0x9e2559d1414a4da9, 0x597685ce33cbe152},
      {"srpt_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0x295435f44c97b1ca},
      {"srpt_near_ties", 0x379e2186e54bce09, 0x792b3be33be1facf},
      {"srpt_margin_chain", 0x9a967abfe8680aa5, 0xf6e58e1567a87a08},
      {"srpt_noreexec_seed0", 0x112d9b428b594f29, 0xd426dac09529afbe},
      {"srpt_noreexec_seed1", 0x213514a4ab09e484, 0x65acbeb92b7ea3f6},
      {"srpt_noreexec_seed2", 0x061db414eab6130a, 0x4703f1bdd5ef9756},
      {"srpt_noreexec_seed3", 0xb4bda944aee503e1, 0xc373919dd9a78d2f},
      {"srpt_noreexec_seed4", 0x9e2559d1414a4da9, 0x5bd3527e83611ee3},
      {"srpt_noreexec_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0xf6e1ae8d4d1bc58d},
      {"srpt_noreexec_near_ties", 0x379e2186e54bce09, 0x2be6896233b8656d},
      {"srpt_noreexec_margin_chain", 0x9a967abfe8680aa5, 0x1b3a5c8e8ab26ebc},
      {"ssf_edf_seed0", 0x112d9b428b594f29, 0xf82683c8d669e685},
      {"ssf_edf_seed1", 0x213514a4ab09e484, 0x928f1eb38f4b8235},
      {"ssf_edf_seed2", 0x061db414eab6130a, 0xdc64b35f3794ec5e},
      {"ssf_edf_seed3", 0xb4bda944aee503e1, 0x1096764732df533b},
      {"ssf_edf_seed4", 0x9e2559d1414a4da9, 0x621afb163b507e4b},
      {"ssf_edf_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0xadeeeafdb108a62d},
      {"ssf_edf_near_ties", 0x379e2186e54bce09, 0xa1ffc6844c553292},
      {"ssf_edf_margin_chain", 0x9a967abfe8680aa5, 0x29b5ad71bccde7e3},
      {"fcfs_seed0", 0x112d9b428b594f29, 0x544582e66799b7b2},
      {"fcfs_seed1", 0x213514a4ab09e484, 0x2a37269cfb074b13},
      {"fcfs_seed2", 0x061db414eab6130a, 0xb55009828fc2014a},
      {"fcfs_seed3", 0xb4bda944aee503e1, 0x1bf0f5bf7fcffd04},
      {"fcfs_seed4", 0x9e2559d1414a4da9, 0x56b51826f52089b7},
      {"fcfs_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0x02927d3f66a5650d},
      {"fcfs_near_ties", 0x379e2186e54bce09, 0x9b9f4fa8c6426aa1},
      {"fcfs_margin_chain", 0x9a967abfe8680aa5, 0x5a43535097ed0318},
      {"failover_srpt_seed0", 0x112d9b428b594f29, 0xed533a72bfa4f339},
      {"failover_srpt_seed1", 0x213514a4ab09e484, 0xac33b1ff4f2cab67},
      {"failover_srpt_seed2", 0x061db414eab6130a, 0xc824b52700e403cf},
      {"failover_srpt_seed3", 0xb4bda944aee503e1, 0x5adf39813c1cf2e6},
      {"failover_srpt_seed4", 0x9e2559d1414a4da9, 0x4a3879a03c4c2ccc},
      {"failover_srpt_hetero_clouds", 0x4a5cbe1c4aaf87f0, 0x6088689b02c06db1},
      {"failover_srpt_near_ties", 0x379e2186e54bce09, 0x06652fd86e5ffae4},
      {"failover_srpt_margin_chain", 0x9a967abfe8680aa5, 0xc8b121eb6b5481b3},
  };
  return kRows;
}

}  // namespace ecs
