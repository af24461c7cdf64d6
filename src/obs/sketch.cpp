#include "obs/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ecs::obs {
namespace {

constexpr double kGamma =
    (1.0 + QuantileSketch::kAlpha) / (1.0 - QuantileSketch::kAlpha);
const double kInvLogGamma = 1.0 / std::log(kGamma);

int bucket_index(double value) {
  // ceil(log_gamma(v)): bucket i covers (gamma^(i-1), gamma^i].
  return static_cast<int>(std::ceil(std::log(value) * kInvLogGamma));
}

double bucket_value(int index) {
  // Midpoint of (gamma^(i-1), gamma^i]: within (1 ± alpha) of any member.
  return 2.0 * std::pow(kGamma, index) / (kGamma + 1.0);
}

}  // namespace

void QuantileSketch::clear() {
  zero_count_ = 0;
  counts_.clear();
  offset_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

void QuantileSketch::observe(double value) {
  if (std::isnan(value)) return;  // NaN: no meaningful rank
  if (value < 0.0) value = 0.0;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (!std::isfinite(value)) return;  // +inf counted, held by max_ only
  if (value <= kMinTrackable) {
    ++zero_count_;
    return;
  }
  const int index = bucket_index(value);
  if (counts_.empty()) {
    offset_ = index;
    counts_.push_back(0);
  } else if (index < offset_) {
    counts_.insert(counts_.begin(),
                   static_cast<std::size_t>(offset_ - index), 0);
    offset_ = index;
  } else if (index >= offset_ + static_cast<int>(counts_.size())) {
    counts_.resize(static_cast<std::size_t>(index - offset_) + 1, 0);
  }
  ++counts_[static_cast<std::size_t>(index - offset_)];
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  if (other.counts_.empty()) return;
  if (counts_.empty()) {
    counts_ = other.counts_;
    offset_ = other.offset_;
    return;
  }
  const int lo = std::min(offset_, other.offset_);
  const int hi = std::max(offset_ + static_cast<int>(counts_.size()),
                          other.offset_ + static_cast<int>(other.counts_.size()));
  if (lo < offset_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(offset_ - lo), 0);
    offset_ = lo;
  }
  if (hi > offset_ + static_cast<int>(counts_.size())) {
    counts_.resize(static_cast<std::size_t>(hi - offset_), 0);
  }
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[static_cast<std::size_t>(other.offset_ - offset_) + i] +=
        other.counts_[i];
  }
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  // Rank of the target observation among the sorted samples (0-based).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  if (rank < zero_count_) return 0.0;
  std::uint64_t seen = zero_count_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > rank) {
      // Clamp into the observed range: the edge buckets over-cover it.
      return std::clamp(bucket_value(offset_ + static_cast<int>(i)), min_,
                        max_);
    }
  }
  return max_;  // remaining rank mass is non-finite observations
}

}  // namespace ecs::obs
