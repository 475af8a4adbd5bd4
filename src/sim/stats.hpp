#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace photorack::sim {

/// Numerically stable streaming moments (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Pearson product-moment correlation coefficient of two equally long series.
/// This is the statistic the paper uses for Figs 7 and 10.  Returns 0 for
/// degenerate inputs (fewer than two points or zero variance).
[[nodiscard]] double pearson(std::span<const double> x, std::span<const double> y);

/// Linear interpolation percentile; q in [0, 100].  Copies and sorts.
/// Throws std::invalid_argument on empty input: a percentile of nothing has
/// no value, and the old 0.0 placeholder let consumers (e.g. iso-perf
/// provisioning at p99) silently size against a phantom zero demand.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Arithmetic mean over a span (0 if empty).
[[nodiscard]] double mean_of(std::span<const double> v);
[[nodiscard]] double max_of(std::span<const double> v);

/// Streaming quantile sketch with a bounded RELATIVE error, for tail
/// telemetry (p50/p99/p999 of job wait, slowdown, flow-completion time) at
/// millions of samples in memory bounded by the value range.
///
/// DDSketch-style log-bucketed rank sketch: a non-negative value x maps to
/// bucket ceil(log(x) / log(gamma)) with gamma = (1+a)/(1-a), so every
/// bucket's representative value (the geometric midpoint) is within
/// relative error `a` of anything stored in it.  Values in [0, 1e-12) land
/// in a dedicated zero bucket that answers 0, clamped like every answer
/// into [min(), max()]: when the smallest sample is positive (say 5e-13),
/// the zero bucket reads min(), not 0.  Bucket counts are integers, so
/// merge() is exact, associative and commutative — merging per-shard
/// sketches in any order yields bit-identical quantiles, the property
/// campaign sweeps need for --jobs-independent output.
///
/// The buckets are one dense counter array indexed from the lowest bucket
/// seen, so add() is a range check and an increment and a copy is a vector
/// copy.  Memory is bounded by the value range, not the sample count:
/// bucketed values spanning [lo, hi] take ceil(ln(hi/lo) / ln(gamma)) + 1
/// counters, at most twice that with the slack kept below the low end.  At
/// a = 0.01, values spanning 1e-12..1e12 need 2,764 counters (22 KB), and
/// any finite values >= 1e-12 fit in 36,870, slack included.
///
/// Contract: add() accepts finite values >= 0 and throws
/// std::invalid_argument otherwise; quantile() takes q as a fraction in
/// [0,1] and throws std::invalid_argument outside it, and throws
/// std::logic_error on an empty sketch (use quantile_or() where empty is an
/// expected state); merge() requires both sketches to share the same
/// relative error.
class QuantileSketch {
 public:
  explicit QuantileSketch(double relative_error = 0.01);

  void add(double x);
  /// Exactly `n` calls of add(x): count, zero count, min and max all match,
  /// and `n == 0` changes nothing.  `x` is checked whatever `n` is.
  void add(double x, std::uint64_t n);
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double relative_error() const { return alpha_; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

  /// Quantile for q a fraction in [0, 1] (0.99 is p99), the convention of
  /// workloads::QuantileLognormal::quantile.  The result is within
  /// relative_error() of the exact rank statistic and clamped into
  /// [min(), max()], so no answer leaves the data.  The clamp does not make
  /// p0 or p100 exact: each reads its extreme's bucket midpoint unless that
  /// midpoint falls outside [min(), max()].  For {5e-13, 5e-13, 2.0}, p100
  /// reads 1.99366, not 2.0.  Throws std::invalid_argument for q outside
  /// [0, 1] and std::logic_error when empty.
  [[nodiscard]] double quantile(double q) const;
  /// quantile(q), or `fallback` when the sketch is empty (q is checked
  /// either way).
  [[nodiscard]] double quantile_or(double q, double fallback) const;

 private:
  double alpha_;
  double gamma_;
  double log_gamma_;
  std::uint64_t n_ = 0;
  std::uint64_t zero_count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::int32_t lo_ = 0;                // bucket index of counts_[0]
  std::vector<std::uint64_t> counts_;  // counts_[i] is bucket lo_ + i

  /// The counter of bucket `idx`, growing the range to cover it.
  std::uint64_t& counter(std::int32_t idx);
};

}  // namespace photorack::sim
