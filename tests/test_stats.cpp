#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"

namespace photorack::sim {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Pearson, PerfectPositive) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegative) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputsReturnZero) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> flat = {5, 5, 5};
  EXPECT_EQ(pearson(x, flat), 0.0);
  std::vector<double> one = {1.0};
  EXPECT_EQ(pearson(one, one), 0.0);
}

TEST(Pearson, KnownValue) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {1, 2, 2, 5, 4};
  // Hand-computed: sxy = 9, sxx = 10, syy = 10.8 => r = 9/sqrt(108).
  EXPECT_NEAR(pearson(x, y), 9.0 / std::sqrt(108.0), 1e-12);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

// The old contract returned 0.0 for an empty input — a phantom value that
// let p99 provisioning size against zero demand.  Empty is now a hard error.
TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Means, MeanGeomeanMax) {
  std::vector<double> v = {1.0, 4.0, 16.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 7.0);
  EXPECT_NEAR(geomean_of(v), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(max_of(v), 16.0);
  EXPECT_EQ(mean_of({}), 0.0);
}

// geomean_of used to clamp non-positive inputs to 1e-300, silently dragging
// the mean toward zero; both degenerate cases are now hard errors.
TEST(Means, GeomeanRejectsEmptyAndNonPositive) {
  EXPECT_THROW(geomean_of({}), std::invalid_argument);
  std::vector<double> with_zero = {1.0, 0.0, 4.0};
  EXPECT_THROW(geomean_of(with_zero), std::invalid_argument);
  std::vector<double> with_negative = {1.0, -2.0};
  EXPECT_THROW(geomean_of(with_negative), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// QuantileSketch: bounded relative error, exact merges, O(1) memory.
// ---------------------------------------------------------------------------

/// Assert every probed quantile of `sketch` is within its stated relative
/// error of the exact rank statistic of `values`.
void expect_within_bound(const QuantileSketch& sketch, std::vector<double> values) {
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double exact = percentile(values, q * 100.0);
    const double approx = sketch.quantile(q);
    EXPECT_NEAR(approx, exact, sketch.relative_error() * std::abs(exact) + 1e-12)
        << "q=" << q;
  }
}

TEST(QuantileSketchTest, HeavyTailLognormalWithinErrorBound) {
  Rng rng(42);
  QuantileSketch sketch(0.01);
  std::vector<double> values;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.lognormal(0.0, 2.0);  // spans several decades
    sketch.add(x);
    values.push_back(x);
  }
  expect_within_bound(sketch, std::move(values));
}

TEST(QuantileSketchTest, BimodalWithinErrorBound) {
  Rng rng(7);
  QuantileSketch sketch(0.02);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    const double x =
        rng.bernoulli(0.9) ? rng.uniform(0.5, 1.5) : rng.uniform(800.0, 1200.0);
    sketch.add(x);
    values.push_back(x);
  }
  expect_within_bound(sketch, std::move(values));
}

TEST(QuantileSketchTest, ConstantStreamIsExact) {
  QuantileSketch sketch(0.01);
  for (int i = 0; i < 1000; ++i) sketch.add(3.25);
  // All mass in one bucket, and the [min, max] clamp pins the answer.
  EXPECT_DOUBLE_EQ(sketch.quantile(0), 3.25);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 3.25);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.999), 3.25);
}

TEST(QuantileSketchTest, ZerosReportExactlyZero) {
  QuantileSketch sketch;
  for (int i = 0; i < 90; ++i) sketch.add(0.0);
  for (int i = 0; i < 10; ++i) sketch.add(100.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  EXPECT_GT(sketch.quantile(0.99), 0.0);
}

TEST(QuantileSketchTest, QuantilesAreMonotoneInQ) {
  Rng rng(3);
  QuantileSketch sketch;
  for (int i = 0; i < 50000; ++i) sketch.add(rng.exponential(5.0));
  double prev = sketch.quantile(0);
  for (int step = 1; step <= 20; ++step) {
    const double q = step / 20.0;
    const double cur = sketch.quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

TEST(QuantileSketchTest, MergeMatchesSequentialExactly) {
  // Integer bucket counts make merge EXACT, not just within-bound: the
  // merged sketch must answer bit-identically to one fed sequentially.
  Rng rng(11);
  QuantileSketch a, b, c, all;
  for (int i = 0; i < 30000; ++i) {
    const double x = rng.lognormal(1.0, 1.5);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
    all.add(x);
  }
  QuantileSketch merged = a;
  merged.merge(b);
  merged.merge(c);
  EXPECT_EQ(merged.count(), all.count());
  for (const double q : {0.01, 0.5, 0.99, 0.999})
    EXPECT_DOUBLE_EQ(merged.quantile(q), all.quantile(q)) << "q=" << q;
}

TEST(QuantileSketchTest, MergeIsOrderIndependent) {
  Rng rng(13);
  QuantileSketch a, b;
  for (int i = 0; i < 5000; ++i) {
    a.add(rng.exponential(1.0));
    b.add(rng.exponential(100.0));
  }
  QuantileSketch ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  for (const double q : {0.1, 0.5, 0.99})
    EXPECT_DOUBLE_EQ(ab.quantile(q), ba.quantile(q)) << "q=" << q;
}

TEST(QuantileSketchTest, MillionSamplesO1Memory) {
  // The acceptance criterion behind the traffic engine: a >= 1M-sample
  // open-loop stream summarizes in O(1) memory (no per-sample storage).
  // The exact distribution of a scaled exponential is known, so the tails
  // can be checked against closed form instead of a giant sorted vector.
  Rng rng(2026);
  QuantileSketch sketch(0.01);
  constexpr int kSamples = 1'500'000;
  for (int i = 0; i < kSamples; ++i) sketch.add(rng.exponential(10.0));
  EXPECT_EQ(sketch.count(), static_cast<std::size_t>(kSamples));
  // Exponential(mean 10): q-quantile = -10 ln(1 - q).  At n = 1.5M the
  // sampling error at p99.9 is well under the combined 3% tolerance.
  const double p50 = -10.0 * std::log(1.0 - 0.50);
  const double p99 = -10.0 * std::log(1.0 - 0.99);
  const double p999 = -10.0 * std::log(1.0 - 0.999);
  EXPECT_NEAR(sketch.quantile(0.50), p50, 0.03 * p50);
  EXPECT_NEAR(sketch.quantile(0.99), p99, 0.03 * p99);
  EXPECT_NEAR(sketch.quantile(0.999), p999, 0.03 * p999);
}

TEST(QuantileSketchTest, ContractViolationsThrow) {
  EXPECT_THROW(QuantileSketch(0.0), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(1.0), std::invalid_argument);
  QuantileSketch sketch;
  EXPECT_THROW(sketch.add(-1.0), std::invalid_argument);
  EXPECT_THROW(sketch.add(std::nan("")), std::invalid_argument);
  EXPECT_THROW(sketch.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(sketch.quantile(0.5), std::logic_error);  // still empty
  EXPECT_EQ(sketch.quantile_or(0.5, -7.0), -7.0);
  // q is a fraction: a percent (or NaN) is a caller bug, empty sketch or not.
  EXPECT_THROW(sketch.quantile_or(99.0, 0.0), std::invalid_argument);
  sketch.add(1.0);
  for (const double q : {-0.01, 1.01, 99.0, std::nan("")})
    EXPECT_THROW(sketch.quantile(q), std::invalid_argument) << "q=" << q;
  QuantileSketch coarser(0.05);
  EXPECT_THROW(sketch.merge(coarser), std::invalid_argument);
}

TEST(HistogramTest, CountsAndCdf) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_DOUBLE_EQ(h.total(), 10.0);
  EXPECT_NEAR(h.cdf(5.0), 0.5, 1e-12);
  EXPECT_EQ(h.cdf(-1.0), 0.0);
  EXPECT_EQ(h.cdf(10.0), 1.0);
}

TEST(HistogramTest, OutOfRangeClamps) {
  Histogram h(0.0, 1.0, 4);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
}

TEST(HistogramTest, BadRangeThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace photorack::sim
