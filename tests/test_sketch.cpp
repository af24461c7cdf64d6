// Tests for the mergeable quantile sketch (obs/sketch.hpp): the documented
// relative-error bound against exact order statistics (including the exact
// stretch_percentile() of a 10k-job simulated instance), exact mergeability
// across worker shards, and the edge cases (zeros, negatives, non-finite).
#include "obs/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "exp/runner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/random_instances.hpp"

namespace ecs {
namespace {

/// Asserts the sketch's q-quantile lies within the relative-error band
/// around the bracketing order statistics of the sorted sample. The sketch
/// picks the order statistic of rank floor(q * (n - 1)); the exact
/// percentile() interpolates between neighbours, so the admissible band is
/// [lo * (1 - alpha), hi * (1 + alpha)] over both neighbours.
void expect_quantile_within(const obs::QuantileSketch& sketch,
                            std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const double lo = sorted[static_cast<std::size_t>(std::floor(rank))];
  const double hi = sorted[static_cast<std::size_t>(std::ceil(rank))];
  const double estimate = sketch.quantile(q);
  const double alpha = obs::QuantileSketch::kAlpha;
  EXPECT_GE(estimate, lo * (1.0 - alpha) - 1e-12) << "q = " << q;
  EXPECT_LE(estimate, hi * (1.0 + alpha) + 1e-12) << "q = " << q;
}

TEST(Sketch, EmptyAndExactExtremes) {
  obs::QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  sketch.observe(3.0);
  sketch.observe(7.0);
  sketch.observe(5.0);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.min(), 3.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 7.0);
  // q = 0 / q = 1 return the exact observed extremes, not bucket midpoints.
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 7.0);
  EXPECT_NEAR(sketch.mean(), 5.0, 1e-12);
}

TEST(Sketch, RelativeErrorBoundOnWideLogUniformSample) {
  // Values across six decades: the regime log buckets are built for.
  Rng rng(123);
  obs::QuantileSketch sketch;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, rng.uniform(-3.0, 3.0));
    values.push_back(v);
    sketch.observe(v);
  }
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    expect_quantile_within(sketch, values, q);
  }
}

TEST(Sketch, MatchesExactStretchPercentileOn10kJobInstance) {
  // The acceptance check of the sweep reports: sketch p50/p99 of the
  // per-job stretch distribution of a 10k-job run within the documented
  // relative-error bound of the exact ScheduleMetrics::stretch_percentile.
  RandomInstanceConfig cfg;
  cfg.n = 10000;
  cfg.ccr = 1.0;
  cfg.load = 0.5;
  Rng rng(42);
  const Instance instance = make_random_instance(cfg, rng);
  RunOptions options;
  options.validate = false;
  const RunOutcome outcome = run_policy(instance, "srpt", options);

  obs::QuantileSketch sketch;
  std::vector<double> stretches;
  for (const JobMetrics& jm : outcome.metrics.per_job) {
    sketch.observe(jm.stretch);
    stretches.push_back(jm.stretch);
  }
  ASSERT_EQ(sketch.count(), 10000u);
  for (const double q : {0.5, 0.9, 0.99}) {
    expect_quantile_within(sketch, stretches, q);
    // And against the interpolated exact percentile with the documented
    // relative bound (stretch >= 1, so relative tolerance is well-defined).
    const double exact = outcome.metrics.stretch_percentile(q);
    EXPECT_NEAR(sketch.quantile(q), exact,
                (obs::QuantileSketch::kAlpha + 1e-3) * exact + 1e-9)
        << "q = " << q;
  }
}

TEST(Sketch, MergeOfWorkerShardsEqualsSingleSketch) {
  // The sweep merges per-worker sketches; merging must reproduce the
  // single-observer sketch exactly (same buckets -> same quantiles).
  Rng rng(7);
  obs::QuantileSketch whole;
  std::vector<obs::QuantileSketch> shards(8, obs::QuantileSketch{});
  for (int i = 0; i < 5000; ++i) {
    const double v = std::pow(10.0, rng.uniform(-2.0, 4.0));
    whole.observe(v);
    shards[static_cast<std::size_t>(i) % shards.size()].observe(v);
  }
  obs::QuantileSketch merged;
  // Deliberately merge in a scrambled order: merging is order-independent.
  for (const std::size_t s : {3u, 0u, 7u, 1u, 5u, 2u, 6u, 4u}) {
    merged.merge(shards[s]);
  }
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  EXPECT_NEAR(merged.sum(), whole.sum(), 1e-9 * std::abs(whole.sum()));
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q)) << "q = " << q;
  }
}

TEST(Sketch, ZeroNegativeAndNonFiniteInputs) {
  obs::QuantileSketch sketch;
  sketch.observe(0.0);
  sketch.observe(-5.0);  // clamps to 0: tracked quantities are non-negative
  sketch.observe(obs::QuantileSketch::kMinTrackable / 2.0);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  // min/max track the raw observations; the zero bucket only flattens ranks.
  EXPECT_DOUBLE_EQ(sketch.max(), obs::QuantileSketch::kMinTrackable / 2.0);
  sketch.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(sketch.count(), 3u);  // NaN has no rank; dropped entirely
}

TEST(Sketch, MergeWithEmptyIsIdentityBothDirections) {
  obs::QuantileSketch filled;
  std::vector<double> values;
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double v = std::pow(10.0, rng.uniform(-1.0, 2.0));
    values.push_back(v);
    filled.observe(v);
  }
  // Nonempty.merge(empty): a no-op.
  obs::QuantileSketch empty;
  const std::uint64_t count_before = filled.count();
  const double p50_before = filled.quantile(0.5);
  filled.merge(empty);
  EXPECT_EQ(filled.count(), count_before);
  EXPECT_DOUBLE_EQ(filled.quantile(0.5), p50_before);
  // Empty.merge(nonempty): adopts the other's distribution exactly.
  obs::QuantileSketch adopted;
  adopted.merge(filled);
  EXPECT_EQ(adopted.count(), filled.count());
  EXPECT_DOUBLE_EQ(adopted.min(), filled.min());
  EXPECT_DOUBLE_EQ(adopted.max(), filled.max());
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    EXPECT_DOUBLE_EQ(adopted.quantile(q), filled.quantile(q)) << "q = " << q;
  }
  // Empty.merge(empty): still empty, still returns 0 quantiles.
  obs::QuantileSketch a, b;
  a.merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
}

TEST(Sketch, SelfMergeEqualsMergingACopy) {
  // merge(*this) aliases source and destination; it must behave exactly
  // like merging an independent copy (every count doubles, extremes and
  // quantile estimates unchanged).
  obs::QuantileSketch sketch;
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    sketch.observe(std::pow(10.0, rng.uniform(-2.0, 3.0)));
  }
  sketch.observe(0.0);  // engage the zero bucket too
  obs::QuantileSketch copy_merged = sketch;
  const obs::QuantileSketch copy = sketch;
  copy_merged.merge(copy);
  sketch.merge(sketch);
  EXPECT_EQ(sketch.count(), copy_merged.count());
  EXPECT_DOUBLE_EQ(sketch.min(), copy_merged.min());
  EXPECT_DOUBLE_EQ(sketch.max(), copy_merged.max());
  EXPECT_DOUBLE_EQ(sketch.sum(), copy_merged.sum());
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_DOUBLE_EQ(sketch.quantile(q), copy_merged.quantile(q))
        << "q = " << q;
  }
}

TEST(Sketch, MergeAcrossDisjointRangesAndCollapseStates) {
  // Shards in different regimes: one entirely in the zero bucket, one in
  // the small-value decades (negative bucket offsets), one in the large
  // decades (offsets past the other's range). Merging must grow the bucket
  // array in both directions and reproduce the single-observer sketch
  // bit-for-bit, regardless of merge direction.
  obs::QuantileSketch zeros, small, large, whole;
  for (int i = 0; i < 100; ++i) {
    zeros.observe(0.0);
    whole.observe(0.0);
  }
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double lo = std::pow(10.0, rng.uniform(-6.0, -3.0));
    const double hi = std::pow(10.0, rng.uniform(3.0, 6.0));
    small.observe(lo);
    large.observe(hi);
    whole.observe(lo);
    whole.observe(hi);
  }
  // large first, then small: forces a front-prepend of the bucket array.
  obs::QuantileSketch down;
  down.merge(large);
  down.merge(small);
  down.merge(zeros);
  // small first, then large: forces a back-resize instead.
  obs::QuantileSketch up;
  up.merge(zeros);
  up.merge(small);
  up.merge(large);
  EXPECT_EQ(down.count(), whole.count());
  EXPECT_EQ(up.count(), whole.count());
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_DOUBLE_EQ(down.quantile(q), whole.quantile(q)) << "q = " << q;
    EXPECT_DOUBLE_EQ(up.quantile(q), whole.quantile(q)) << "q = " << q;
  }
}

TEST(Sketch, MergedShardsKeepRelativeErrorBound) {
  // The documented 1% bound must hold for the MERGED sketch against the
  // exact order statistics of the union sample — merging shards of very
  // different ranges must not degrade the estimate.
  Rng rng(17);
  std::vector<obs::QuantileSketch> shards(4, obs::QuantileSketch{});
  std::vector<double> values;
  for (int s = 0; s < 4; ++s) {
    // Each shard covers its own decade band: [10^(s-2), 10^(s-1)).
    for (int i = 0; i < 3000; ++i) {
      const double v = std::pow(
          10.0, rng.uniform(static_cast<double>(s) - 2.0,
                            static_cast<double>(s) - 1.0));
      shards[static_cast<std::size_t>(s)].observe(v);
      values.push_back(v);
    }
  }
  obs::QuantileSketch merged;
  for (const obs::QuantileSketch& shard : shards) merged.merge(shard);
  ASSERT_EQ(merged.count(), values.size());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    expect_quantile_within(merged, values, q);
  }
}

TEST(Sketch, ClearResetsEverything) {
  obs::QuantileSketch sketch;
  for (int i = 1; i <= 100; ++i) sketch.observe(static_cast<double>(i));
  sketch.clear();
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.bucket_count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.99), 0.0);
}

}  // namespace
}  // namespace ecs
