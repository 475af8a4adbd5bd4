#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"

namespace photorack::sim {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL(); }, 4);
  SUCCEED();
}

TEST(ParallelFor, ParallelMatchesSerialWithPerIndexSeeds) {
  // The determinism contract: per-index seeding makes parallel results
  // identical to serial results.
  auto compute = [](std::size_t i) {
    Rng rng(1000 + i);
    double acc = 0;
    for (int k = 0; k < 100; ++k) acc += rng.uniform();
    return acc;
  };
  std::vector<double> serial(64), parallel(64);
  for (std::size_t i = 0; i < 64; ++i) serial[i] = compute(i);
  parallel_for(64, [&](std::size_t i) { parallel[i] = compute(i); }, 4);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, ExceptionPropagatesFromWorkers) {
  EXPECT_THROW(parallel_for(
                   64,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ParallelFor, ExceptionPropagatesFromSerialPath) {
  EXPECT_THROW(parallel_for(
                   8, [](std::size_t) { throw std::runtime_error("boom"); }, 1),
               std::runtime_error);
}

TEST(ParallelFor, SingleWorkerFallback) {
  std::vector<int> order;
  parallel_for(16, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  std::vector<int> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // serial path preserves order
}

}  // namespace
}  // namespace photorack::sim
