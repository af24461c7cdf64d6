// ssf_edf.hpp - Stretch-So-Far Earliest-Deadline-First (paper section V-D).
//
// The heuristic extends Bender et al.'s stretch-so-far EDF to the
// edge-cloud setting. At every *release* event it binary-searches the
// smallest target stretch S that appears achievable from the current state:
// each live job J_i receives the deadline
//
//     d_i = r_i + S * min(t^e_i, t^c_i)
//
// (with remaining amounts accounted for), and feasibility of a candidate S
// is tested by walking jobs in EDF order through a contention-aware list
// projection (ResourceClock), placing each on the processor where it
// completes earliest. EDF placement is not optimal in the edge-cloud model
// (the paper gives a two-job counterexample), so the search yields the best
// *verified-achievable* stretch, not the optimum — exactly the paper's
// algorithm.
//
// At every event (release or completion) the job with the smallest deadline
// is assigned to the processor where it completes the earliest, then the
// next job, and so on; priorities handed to the engine are the EDF ranks.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/common.hpp"

namespace ecs {

struct SsfEdfConfig {
  /// Relative precision of the binary search on the target stretch
  /// (the paper's epsilon; complexity grows with log(1/eps)).
  double epsilon = 1e-3;
  /// Multiplier applied to the optimal stretch-so-far when deriving
  /// deadlines (the paper's alpha; alpha = 1 gives Delta-competitiveness
  /// on a single machine).
  double alpha = 1.0;
  /// Cap on binary-search iterations (safety; 60 is far beyond what the
  /// epsilon above requires).
  int max_iterations = 60;
};

class SsfEdfPolicy final : public Policy {
 public:
  SsfEdfPolicy() = default;
  explicit SsfEdfPolicy(const SsfEdfConfig& config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "SSF-EDF"; }

  void reset(const Instance& instance) override;

  void decide(const SimView& view, const std::vector<Event>& events,
              std::vector<Directive>& out) override;

  /// Target stretch selected by the last binary search (for tests).
  [[nodiscard]] double last_target_stretch() const noexcept {
    return last_target_stretch_;
  }

 private:
  /// Tests whether target stretch S is achievable from the current state,
  /// over the jobs gathered in fields_. On success the probe's EDF entries
  /// (deadline = key) are kept in kept_ and S in kept_stretch_. Non-const:
  /// it reuses the entry buffers and the projection clock.
  [[nodiscard]] bool feasible(const SimView& view, double stretch);

  void recompute_deadlines(const SimView& view);

  SsfEdfConfig config_;
  std::vector<double> deadlines_;  ///< per state SLOT (view.slot); +inf idle
  double last_target_stretch_ = 0.0;
  // Workspace, reused across decide() calls and feasibility probes (zero
  // steady-state allocation; see DESIGN.md §6).
  std::vector<JobFields> fields_;      ///< live jobs' fields, gathered once
  std::vector<OrderedJob> entries_;    ///< the running probe's EDF entries
  std::vector<OrderedJob> kept_;       ///< last successful probe's entries
  double kept_stretch_ = 0.0;          ///< its stretch; NaN: none this call
  std::vector<OrderedJob> order_;      ///< decide()'s EDF order
  ResourceClock clock_;  ///< probe + assignment projections (sequential)
};

}  // namespace ecs
