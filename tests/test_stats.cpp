#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
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
// QuantileSketch: bounded relative error, exact merges, memory bounded by
// the value range.
// ---------------------------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

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
    EXPECT_EQ(bits(merged.quantile(q)), bits(all.quantile(q))) << "q=" << q;
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
    EXPECT_EQ(bits(ab.quantile(q)), bits(ba.quantile(q))) << "q=" << q;
}

TEST(QuantileSketchTest, MillionSamplesO1Memory) {
  // The acceptance criterion behind the traffic engine: a >= 1M-sample
  // open-loop stream summarizes with no per-sample storage.
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

// The [min, max] clamp keeps every answer inside the data; it does not make
// p0 or p100 exact, and it lifts the zero bucket's 0 to a positive min().
TEST(QuantileSketchTest, ClampBoundsAnswersButIsNotExactAtTheEnds) {
  const double gamma = 1.01 / 0.99;
  const double midpoint =  // of the bucket holding 1.99 and 2.0
      2.0 * std::pow(gamma, std::ceil(std::log(2.0) / std::log(gamma))) / (gamma + 1.0);
  EXPECT_NEAR(midpoint, 1.99366, 1e-5);

  QuantileSketch tiny_and_two(0.01);
  for (const double x : {5e-13, 5e-13, 2.0}) tiny_and_two.add(x);
  EXPECT_EQ(bits(tiny_and_two.quantile(1.0)), bits(midpoint));  // not 2.0
  EXPECT_EQ(bits(tiny_and_two.quantile(0.0)), bits(5e-13));     // min(), not 0
  EXPECT_EQ(bits(tiny_and_two.quantile(0.5)), bits(5e-13));

  QuantileSketch one_bucket(0.01);
  for (const double x : {1.99, 2.0}) one_bucket.add(x);
  EXPECT_EQ(bits(one_bucket.quantile(0.0)), bits(midpoint));  // not 1.99
  EXPECT_EQ(bits(one_bucket.quantile(1.0)), bits(midpoint));  // not 2.0

  for (const QuantileSketch* sketch : {&tiny_and_two, &one_bucket})
    for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      EXPECT_GE(sketch->quantile(q), sketch->min()) << "q=" << q;
      EXPECT_LE(sketch->quantile(q), sketch->max()) << "q=" << q;
    }
}

// ---------------------------------------------------------------------------
// Differential test: the dense counter store against the std::map store it
// replaced.  Same bucket index, zero threshold, clamp and rank walk, so
// every count, extreme and quantile must match bit for bit.
// ---------------------------------------------------------------------------

class ReferenceSketch {
 public:
  explicit ReferenceSketch(double relative_error = 0.01)
      : gamma_((1.0 + relative_error) / (1.0 - relative_error)),
        log_gamma_(std::log(gamma_)) {}

  void add(double x) {
    min_ = n_ ? std::min(min_, x) : x;
    max_ = n_ ? std::max(max_, x) : x;
    ++n_;
    if (x < 1e-12) {
      ++zero_count_;
      return;
    }
    ++buckets_[static_cast<std::int32_t>(std::ceil(std::log(x) / log_gamma_))];
  }

  void merge(const ReferenceSketch& other) {
    if (other.n_ == 0) return;
    min_ = n_ ? std::min(min_, other.min_) : other.min_;
    max_ = n_ ? std::max(max_, other.max_) : other.max_;
    n_ += other.n_;
    zero_count_ += other.zero_count_;
    for (const auto& [idx, cnt] : other.buckets_) buckets_[idx] += cnt;
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

  [[nodiscard]] double quantile(double q) const {
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
    double value = 0.0;
    if (rank >= zero_count_) {
      std::uint64_t cum = zero_count_;
      value = max_;
      for (const auto& [idx, cnt] : buckets_) {
        cum += cnt;
        if (rank < cum) {
          value = 2.0 * std::pow(gamma_, static_cast<double>(idx)) / (gamma_ + 1.0);
          break;
        }
      }
    }
    return std::clamp(value, min_, max_);
  }

 private:
  double gamma_;
  double log_gamma_;
  std::uint64_t n_ = 0;
  std::uint64_t zero_count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::map<std::int32_t, std::uint64_t> buckets_;
};

constexpr double kProbeQs[] = {0, 0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1};

::testing::AssertionResult same(const QuantileSketch& dense, const ReferenceSketch& ref) {
  if (dense.count() != ref.count())
    return ::testing::AssertionFailure()
           << "count " << dense.count() << " vs " << ref.count();
  if (bits(dense.min()) != bits(ref.min()) || bits(dense.max()) != bits(ref.max()))
    return ::testing::AssertionFailure() << "min/max " << dense.min() << "/" << dense.max()
                                         << " vs " << ref.min() << "/" << ref.max();
  if (dense.count() == 0) return ::testing::AssertionSuccess();
  for (const double q : kProbeQs)
    if (bits(dense.quantile(q)) != bits(ref.quantile(q)))
      return ::testing::AssertionFailure() << "q=" << q << ": " << dense.quantile(q)
                                           << " vs " << ref.quantile(q);
  return ::testing::AssertionSuccess();
}

/// Feed `values` to both stores, comparing after every add.
void expect_same_stream(const std::vector<double>& values, double relative_error = 0.01) {
  QuantileSketch dense(relative_error);
  ReferenceSketch ref(relative_error);
  for (std::size_t i = 0; i < values.size(); ++i) {
    dense.add(values[i]);
    ref.add(values[i]);
    ASSERT_TRUE(same(dense, ref)) << "after add " << i << " (x=" << values[i] << ")";
  }
}

template <typename Draw>
std::vector<double> drawn(std::uint64_t seed, int n, Draw draw) {
  Rng rng(seed);
  std::vector<double> values;
  for (int i = 0; i < n; ++i) values.push_back(draw(rng));
  return values;
}

TEST(QuantileSketchDifferential, SeededDistributions) {
  const auto lognormal = drawn(21, 4000, [](Rng& r) { return r.lognormal(0.0, 2.0); });
  expect_same_stream(lognormal);
  expect_same_stream(lognormal, 0.05);
  expect_same_stream(drawn(22, 4000, [](Rng& r) { return r.exponential(5.0); }));
  expect_same_stream(drawn(23, 4000, [](Rng& r) {
    return r.bernoulli(0.9) ? r.uniform(0.5, 1.5) : r.uniform(800.0, 1200.0);
  }));
}

TEST(QuantileSketchDifferential, ZerosAndSubThresholdValues) {
  expect_same_stream(drawn(24, 4000, [](Rng& r) {
    switch (r.below(4)) {
      case 0: return 0.0;
      case 1: return 5e-13;
      case 2: return 1e-12;  // the threshold itself is bucketed
      default: return r.exponential(1.0);
    }
  }));
  expect_same_stream({5e-13, 5e-13, 2.0});
}

TEST(QuantileSketchDifferential, StrictlyDescendingStreamGrowsTheLowEnd) {
  // Every value is a new lowest bucket, down through the zero threshold.
  std::vector<double> values;
  for (double x = 1e12; x > 1e-14; x *= 0.97) values.push_back(x);
  expect_same_stream(values);
}

TEST(QuantileSketchDifferential, ValuesSpanningTwentyFourDecades) {
  expect_same_stream(
      drawn(25, 4000, [](Rng& r) { return std::pow(10.0, r.uniform(-12.0, 12.0)); }));
}

TEST(QuantileSketchDifferential, NeighboursOfBucketBoundaries) {
  // gamma^k and its nextafter neighbours straddle a bucket edge.
  const double gamma = 1.01 / 0.99;
  std::vector<double> values;
  for (int k = -1381; k <= 1382; k += 7) {
    const double edge = std::pow(gamma, k);
    for (const double x : {std::nextafter(edge, 0.0), edge,
                           std::nextafter(edge, std::numeric_limits<double>::infinity())})
      if (x >= 1e-12) values.push_back(x);
  }
  Rng rng(26);
  for (std::size_t i = values.size(); i > 1; --i)  // shuffle: not only ascending
    std::swap(values[i - 1], values[rng.below(i)]);
  expect_same_stream(values);
}

TEST(QuantileSketchDifferential, WeightedAddIsRepeatedAdd) {
  const std::vector<std::pair<double, std::uint64_t>> adds = {
      {3.0, 5}, {0.0, 3}, {5e-13, 2}, {1e6, 0}, {0.25, 1}, {1e-9, 40}, {7.5, 0},
      {0.0, 0}, {1e9, 17}, {3.0, 2}};
  QuantileSketch weighted, repeated;
  ReferenceSketch ref;
  for (const auto& [x, n] : adds) {
    weighted.add(x, n);
    for (std::uint64_t i = 0; i < n; ++i) {
      repeated.add(x);
      ref.add(x);
    }
    ASSERT_TRUE(same(weighted, ref)) << "after add(" << x << ", " << n << ")";
    ASSERT_EQ(weighted.count(), repeated.count());
    for (const double q : kProbeQs)
      ASSERT_EQ(bits(weighted.quantile(q)), bits(repeated.quantile(q)));
  }
  // n == 0 changes nothing, not even on an empty sketch; x is still checked.
  QuantileSketch empty;
  empty.add(4.0, 0);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.max(), 0.0);
  EXPECT_THROW((void)empty.quantile(0.5), std::logic_error);
  EXPECT_THROW(empty.add(-1.0, 0), std::invalid_argument);
  EXPECT_THROW(empty.add(std::nan(""), 3), std::invalid_argument);
}

/// A dense sketch and its reference, fed the same values.
struct Pair {
  QuantileSketch dense;
  ReferenceSketch ref;
  void add(const std::vector<double>& values) {
    for (const double x : values) {
      dense.add(x);
      ref.add(x);
    }
  }
  void merge(const Pair& other) {
    dense.merge(other.dense);
    ref.merge(other.ref);
  }
};

TEST(QuantileSketchDifferential, MergeCases) {
  const auto low = drawn(31, 500, [](Rng& r) { return r.uniform(1.0, 10.0); });
  const auto high = drawn(32, 500, [](Rng& r) { return r.uniform(1e6, 1e7); });
  const auto wide = drawn(33, 500, [](Rng& r) { return r.lognormal(3.0, 3.0); });
  std::vector<double> descending;
  for (double x = 1e4; x > 1e-3; x *= 0.9) descending.push_back(x);
  const std::vector<double> zeros = {0.0, 5e-13, 0.0};

  const std::vector<std::pair<std::string, std::vector<double>>> streams = {
      {"empty", {}}, {"zeros", zeros}, {"low", low}, {"high", high},
      {"wide", wide}, {"descending", descending}};
  // Every ordered pair: into and from empty, disjoint above and below,
  // overlapping, zero-bucket-only and low-end slack on either side.
  for (const auto& [into_name, into_values] : streams) {
    for (const auto& [from_name, from_values] : streams) {
      Pair into, from;
      into.add(into_values);
      from.add(from_values);
      into.merge(from);
      EXPECT_TRUE(same(into.dense, into.ref)) << from_name << " into " << into_name;
      EXPECT_TRUE(same(from.dense, from.ref)) << from_name << " changed by merge";
      into.add(low);  // the merged range keeps taking adds
      EXPECT_TRUE(same(into.dense, into.ref)) << from_name << " into " << into_name
                                              << ", then adds";
    }
  }
}

TEST(QuantileSketchDifferential, CopyIsIndependentOfItsSource) {
  Pair source;
  source.add(drawn(41, 300, [](Rng& r) { return r.uniform(10.0, 20.0); }));
  Pair copy = source;
  // Below, inside and above the source's range: the copy grows both ends.
  copy.add({1e-6, 0.0, 15.0, 1e9, 1e-10});
  EXPECT_TRUE(same(copy.dense, copy.ref));
  EXPECT_TRUE(same(source.dense, source.ref));
  EXPECT_EQ(source.dense.count(), 300u);
  EXPECT_EQ(copy.dense.count(), 305u);
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
