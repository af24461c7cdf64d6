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
//
// Probes and the assignment share one EDF order (DESIGN.md §6). It survives
// decide(), keyed by state slot; each pass re-keys it in place and re-sorts
// it from where the last pass left it, and a probe projects only the
// positions after the prefix it shares with the previous probe.
#pragma once

#include <cstddef>
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
  /// One position of a probe's walk: the target it committed and its
  /// projected completion.
  struct Step {
    int target;
    Time done;
  };

  /// Tests whether target stretch S is achievable from the current state:
  /// re-keys order_ by S's deadlines, re-sorts it and walks it through the
  /// list projection. Positions the previous probe of this search walked
  /// and that kept their job are not projected again (see DESIGN.md §6);
  /// on success S is kept in kept_stretch_. Non-const: it reuses order_,
  /// the probe record and the projection clock.
  [[nodiscard]] bool feasible(const SimView& view, double stretch);

  void recompute_deadlines(const SimView& view);

  SsfEdfConfig config_;
  std::vector<double> deadlines_;  ///< per state SLOT (view.slot); +inf idle
  double last_target_stretch_ = 0.0;
  // Workspace, reused across decide() calls and feasibility probes (zero
  // steady-state allocation; see DESIGN.md §6).
  std::vector<JobFields> fields_;  ///< per state slot; live ones gathered
                                   ///< once per decide()
  /// The EDF order. Probes and the list assignment re-key it in place and
  /// re-sort it from where the last one left it.
  LiveOrder order_;
  /// The probe record: steps_[i] is position i of the last probe of the
  /// running search, for i < walked_. Valid within one search only.
  std::vector<Step> steps_;
  std::size_t walked_ = 0;
  double kept_stretch_ = 0.0;  ///< last verified stretch; NaN: none this search
  ResourceClock clock_;  ///< probe + assignment projections (sequential)
};

}  // namespace ecs
