// sketch.hpp - Mergeable quantile sketch with bounded relative error.
//
// The sweeps need tail quantiles of stretch / flow time / queue depth over
// hundreds of replications without retaining per-job samples, and the
// BatchEngine workers each see only a slice of the replications — so the
// summary must be MERGEABLE: merging per-worker sketches must give exactly
// the sketch a single worker observing everything would hold.
//
// This is a DDSketch-style log-bucketed sketch. A value v > 0 lands in
// bucket i = ceil(log_gamma(v)) with gamma = (1 + alpha) / (1 - alpha);
// bucket i covers (gamma^(i-1), gamma^i] and reports the midpoint
// 2 * gamma^i / (gamma + 1), which is within a factor (1 ± alpha) of every
// value in the bucket. Hence EVERY quantile estimate carries a relative
// error of at most alpha — the guarantee the sweep reports cite. Merging
// adds bucket counts position-wise and is exact: merge order, like
// observation order, cannot change any estimate.
//
// Memory is one std::uint64_t per non-empty bucket span: values across
// 18 decades fit in a few thousand buckets at alpha = 0.01.
#pragma once

#include <cstdint>
#include <vector>

namespace ecs::obs {

class QuantileSketch {
 public:
  /// `alpha`: relative accuracy, in (0, 1). Defaults to 1% — p99 of a
  /// 10k-job stretch distribution lands within 1% of the exact value.
  explicit QuantileSketch(double alpha = kDefaultAlpha);

  static constexpr double kDefaultAlpha = 0.01;
  /// Values in [0, kMinTrackable] collapse into the exact zero bucket
  /// (relative error is meaningless at 0; queue depth is often 0).
  static constexpr double kMinTrackable = 1e-12;

  /// Records one observation. Negative values are clamped to 0 (the
  /// tracked quantities — stretch, flow time, queue depth — are
  /// non-negative by construction; a tiny negative from float noise should
  /// not throw mid-sweep). Non-finite values are counted in sum/min/max
  /// bookkeeping but not bucketed.
  void observe(double value);

  /// Adds another sketch's observations, exactly. Throws
  /// std::invalid_argument when the alphas differ (their buckets are
  /// incompatible).
  void merge(const QuantileSketch& other);

  /// Estimate of the q-quantile (q in [0, 1]), within relative error
  /// alpha(). Returns 0 when empty. q = 0 / q = 1 return the exact
  /// observed min / max.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Number of allocated bucket slots (diagnostics / memory accounting).
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counts_.size();
  }

  void clear();

 private:
  [[nodiscard]] int bucket_index(double value) const;
  [[nodiscard]] double bucket_value(int index) const;

  double alpha_;
  double gamma_;
  double inv_log_gamma_;  ///< 1 / ln(gamma), cached for bucket_index
  std::uint64_t zero_count_ = 0;
  /// counts_[i] holds bucket (offset_ + i); dense between the extreme
  /// non-empty buckets.
  std::vector<std::uint64_t> counts_;
  int offset_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ecs::obs
