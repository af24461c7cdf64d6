// single_machine.hpp - Offline optimal max-stretch on a single machine.
//
// Bender et al. showed that the offline single-machine problem (preemption
// allowed, release dates) is solved in polynomial time by a binary search
// on the target stretch S: give each job the deadline r_i + S * denom_i and
// test feasibility with preemptive EDF, which is optimal on one machine.
// This module implements that algorithm exactly (up to the binary-search
// precision). Its callers:
//   * `ecs_bench competitive_ratio` (bench/studies.cpp) divides
//     Edge-Only's online max stretch on a one-edge, cloudless platform by
//     this offline optimum;
//   * tests/test_offline.cpp checks it against SPT's closed form (no
//     release dates) and hand-solved instances.
#pragma once

#include <span>
#include <vector>

#include "core/time.hpp"

namespace ecs {

/// A job as seen by a single machine: processing time, release date, and
/// the stretch denominator (defaults to the processing time; the edge-cloud
/// adaptation passes min(t^e, t^c) instead).
struct SmJob {
  double proc = 0.0;
  Time release = 0.0;
  double denom = 0.0;  ///< 0 means "use proc"
};

/// Preemptive EDF feasibility with release dates: can every job finish by
/// its deadline? Exact on a single machine.
[[nodiscard]] bool edf_feasible_single_machine(
    std::span<const SmJob> jobs, std::span<const double> deadlines);

struct SingleMachineResult {
  double max_stretch = 0.0;           ///< smallest feasible stretch found
  std::vector<double> deadlines;      ///< deadlines at that stretch
  int iterations = 0;                 ///< binary-search probes used
};

/// Offline optimal max-stretch on one machine (to relative precision eps).
[[nodiscard]] SingleMachineResult optimal_max_stretch_single_machine(
    std::span<const SmJob> jobs, double eps = 1e-6, int max_iterations = 128);

}  // namespace ecs
