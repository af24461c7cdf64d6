// trace_io.hpp - CSV (de)serialization of instances and results.
//
// Format (version 1):
//
//   # edgecloud-stretch instance v1
//   edges,<s_0>,<s_1>,...
//   clouds,<P^c>                      (homogeneous cloud, speed 1)
//   cloud_speeds,<c_0>,<c_1>,...      (heterogeneous-cloud extension)
//   outage,<cloud>,<begin>,<end>      (announced availability windows)
//   fault,<kind>,<cloud>,<begin>,<end>  (unannounced fault plan; kind is
//                                     crash | uplink-loss | downlink-loss)
//   job,<id>,<origin>,<work>,<release>,<up>,<down>
//   ...
//
// The format is line-oriented, comment lines start with '#'. Instances and
// fault plans round-trip exactly (values are printed with 17 significant
// digits), so a faulty run is replayable byte-for-byte.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>

#include "core/metrics.hpp"
#include "core/platform.hpp"
#include "sim/faults.hpp"

namespace ecs {

void save_instance(std::ostream& out, const Instance& instance);
void save_instance_file(const std::string& path, const Instance& instance);

/// Throws std::runtime_error on malformed input — including on `fault,`
/// records (use load_faulty_instance for those files).
[[nodiscard]] Instance load_instance(std::istream& in);
[[nodiscard]] Instance load_instance_file(const std::string& path);

/// Writes the fault plan as `fault,<kind>,<cloud>,<begin>,<end>` lines.
void save_fault_plan(std::ostream& out, const FaultPlan& plan);

/// Parses `fault,` lines (comments and blank lines skipped); any other
/// record kind is an error. The returned plan is normalized.
[[nodiscard]] FaultPlan load_fault_plan(std::istream& in);

/// Instance plus its unannounced fault plan in one stream — the full
/// replayable description of a faulty run.
void save_faulty_instance(std::ostream& out, const Instance& instance,
                          const FaultPlan& plan);

[[nodiscard]] std::pair<Instance, FaultPlan> load_faulty_instance(
    std::istream& in);

/// Writes per-job results: id, alloc, completion, response, stretch.
void save_metrics_csv(std::ostream& out, const Instance& instance,
                      const Schedule& schedule,
                      const ScheduleMetrics& metrics);

}  // namespace ecs
