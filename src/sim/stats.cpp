#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace photorack::sim {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n, my = sy / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty())
    throw std::invalid_argument("percentile: empty input has no percentiles");
  q = std::clamp(q, 0.0, 100.0);
  std::sort(values.begin(), values.end());
  const double idx = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean_of(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double max_of(std::span<const double> v) {
  if (v.empty()) return 0.0;
  return *std::max_element(v.begin(), v.end());
}

namespace {
/// Values below this land in the sketch's zero bucket: picosecond-scale
/// metrics expressed in ms never legitimately go this small, and a floor
/// keeps the log-bucket index bounded.
constexpr double kSketchZeroThreshold = 1e-12;

std::int32_t bucket_index(double x, double log_gamma) {
  return static_cast<std::int32_t>(std::ceil(std::log(x) / log_gamma));
}

double checked_fraction(double q) {
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("QuantileSketch: q must be a fraction in [0,1]");
  return q;
}
}  // namespace

QuantileSketch::QuantileSketch(double relative_error) : alpha_(relative_error) {
  if (!(relative_error > 0.0) || !(relative_error < 1.0))
    throw std::invalid_argument("QuantileSketch: relative error must be in (0,1)");
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  log_gamma_ = std::log(gamma_);
}

void QuantileSketch::add(double x) { add(x, 1); }

void QuantileSketch::add(double x, std::uint64_t n) {
  if (!(x >= 0.0) || std::isinf(x))
    throw std::invalid_argument("QuantileSketch: values must be finite and >= 0");
  if (n == 0) return;
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  n_ += n;
  if (x < kSketchZeroThreshold) {
    zero_count_ += n;
    return;
  }
  counter(bucket_index(x, log_gamma_)) += n;
}

std::uint64_t& QuantileSketch::counter(std::int32_t idx) {
  if (counts_.empty()) lo_ = idx;
  if (idx < lo_) {
    // Grow by at least the current length, so a descending stream shifts
    // the array once per doubling rather than once per new bucket.  The
    // slack stops at the zero threshold's bucket, below which no value maps.
    const std::int64_t slack_lo =
        std::max<std::int64_t>(lo_ - static_cast<std::int64_t>(counts_.size()),
                               bucket_index(kSketchZeroThreshold, log_gamma_));
    const auto new_lo = static_cast<std::int32_t>(std::min<std::int64_t>(idx, slack_lo));
    counts_.insert(counts_.begin(), static_cast<std::size_t>(lo_ - new_lo), 0);
    lo_ = new_lo;
  } else if (static_cast<std::size_t>(idx - lo_) >= counts_.size()) {
    counts_.resize(static_cast<std::size_t>(idx - lo_) + 1, 0);
  }
  return counts_[static_cast<std::size_t>(idx - lo_)];
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (alpha_ != other.alpha_)
    throw std::invalid_argument("QuantileSketch: cannot merge different error bounds");
  if (other.n_ == 0) return;
  if (n_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  n_ += other.n_;
  zero_count_ += other.zero_count_;
  if (other.counts_.empty()) return;
  // Extend the range to cover the other's, then add its counters in place.
  if (counts_.empty()) lo_ = other.lo_;
  if (other.lo_ < lo_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(lo_ - other.lo_), 0);
    lo_ = other.lo_;
  }
  const auto offset = static_cast<std::size_t>(other.lo_ - lo_);
  counts_.resize(std::max(counts_.size(), offset + other.counts_.size()), 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i)
    counts_[offset + i] += other.counts_[i];
}

double QuantileSketch::quantile(double q) const {
  checked_fraction(q);
  if (n_ == 0) throw std::logic_error("QuantileSketch: quantile of empty sketch");
  // Same rank convention as sim::percentile: rank q * (n-1); the bucket
  // holding that rank answers with its geometric midpoint, clamped into the
  // observed [min, max] so no answer leaves the data.
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  double value = 0.0;
  if (rank < zero_count_) {
    value = 0.0;
  } else {
    std::uint64_t cum = zero_count_;
    value = max_;  // falls through only on floating slack in the last bucket
    // Zero counters leave `cum` unchanged, so the walk stops on a non-empty
    // bucket.
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      cum += counts_[i];
      if (rank < cum) {
        const auto idx = static_cast<double>(lo_) + static_cast<double>(i);
        value = 2.0 * std::pow(gamma_, idx) / (gamma_ + 1.0);
        break;
      }
    }
  }
  return std::clamp(value, min_, max_);
}

double QuantileSketch::quantile_or(double q, double fallback) const {
  return n_ ? quantile(q) : (checked_fraction(q), fallback);
}

}  // namespace photorack::sim
