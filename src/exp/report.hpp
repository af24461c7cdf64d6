// report.hpp - Paper-style tabular reporting for the bench harness.
//
// Each ecs_bench scenario prints one table per figure: rows are sweep points
// (the figure's x-axis), columns are the heuristics, cells are the mean of
// the metric over replications (optionally with the standard deviation).
// Tables can also be written as CSV for external plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/sweep.hpp"

namespace ecs {

/// Generic aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> row);

  /// Renders with column alignment to `out`.
  void print(std::ostream& out) const;

  /// Renders as CSV (headers first).
  void write_csv(std::ostream& out) const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Which metric of the aggregates a report shows.
enum class ReportMetric { kMaxStretch, kMeanStretch, kWallSeconds };

struct ReportOptions {
  ReportMetric metric = ReportMetric::kMaxStretch;
  bool show_stddev = false;
  int precision = 3;
  /// x-axis column header (e.g. "CCR", "load", "n").
  std::string x_label = "point";
};

/// Builds the figure table from sweep results (one result per x value).
[[nodiscard]] Table make_report(const std::vector<SweepPointResult>& points,
                                const std::vector<std::string>& policies,
                                const ReportOptions& options = {});

/// Tail table from the merged per-job stretch sketches: one row per
/// (point, policy), columns p50 / p90 / p99 / p99.9 / max plus the job
/// count. Quantiles carry the sketches' relative-error bound (default 1%,
/// obs/sketch.hpp) — the sweep never retains per-job samples.
[[nodiscard]] Table make_stretch_quantile_report(
    const std::vector<SweepPointResult>& points,
    const std::vector<std::string>& policies,
    const std::string& x_label = "point", int precision = 3);

/// Prints a standard bench header (figure id, settings) to `out`.
void print_bench_header(std::ostream& out, const std::string& title,
                        const std::string& description, int replications,
                        std::uint64_t seed);

}  // namespace ecs
