// Guards future parallelization PRs: the whole simulator is seeded through
// sim::Rng, so the same seed must yield bit-identical streams regardless of
// how the surrounding code is scheduled.  These tests pin that contract at
// the two sources of randomness: the raw generator and the synthetic
// workload traces built on top of it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "cosim/rack_cosim.hpp"
#include "cpusim/trace.hpp"
#include "sim/rng.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/generators.hpp"

namespace photorack {
namespace {

TEST(Determinism, RngSameSeedSameStream) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 10'000; ++i) EXPECT_EQ(a(), b()) << "draw " << i;
}

TEST(Determinism, RngReseedReplaysStream) {
  sim::Rng rng(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 1'000; ++i) first.push_back(rng());
  rng.reseed(7);
  for (int i = 0; i < 1'000; ++i) EXPECT_EQ(rng(), first[i]) << "draw " << i;
}

TEST(Determinism, RngDistributionsAreBitIdentical) {
  sim::Rng a(123), b(123);
  for (int i = 0; i < 1'000; ++i) {
    // EXPECT_EQ (not NEAR): determinism means the exact same bits.
    EXPECT_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.normal(), b.normal());
    EXPECT_EQ(a.exponential(3.0), b.exponential(3.0));
    EXPECT_EQ(a.below(1000), b.below(1000));
    EXPECT_EQ(a.zipf(100, 0.9), b.zipf(100, 0.9));
  }
}

TEST(Determinism, RngChildStreamsAreDeterministic) {
  const sim::Rng parent_a(99), parent_b(99);
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    sim::Rng ca = parent_a.child(stream), cb = parent_b.child(stream);
    for (int i = 0; i < 256; ++i) EXPECT_EQ(ca(), cb());
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

std::vector<cpusim::Instr> drain(cpusim::TraceSource& src, std::size_t n) {
  std::vector<cpusim::Instr> out;
  std::array<cpusim::Instr, 512> batch;
  while (out.size() < n) {
    const std::size_t got = src.next_batch(batch);
    if (got == 0) {
      ADD_FAILURE() << "generator ended early at " << out.size() << "/" << n;
      break;
    }
    out.insert(out.end(), batch.begin(), batch.begin() + got);
  }
  out.resize(std::min(out.size(), n));
  return out;
}

void expect_identical(const std::vector<cpusim::Instr>& a,
                      const std::vector<cpusim::Instr>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "instr " << i;
    EXPECT_EQ(a[i].addr, b[i].addr) << "instr " << i;
    EXPECT_EQ(a[i].dependent, b[i].dependent) << "instr " << i;
  }
}

workloads::TraceConfig mixed_config(std::uint64_t seed) {
  workloads::TraceConfig cfg;
  cfg.seed = seed;
  cfg.working_set = 16ULL << 20;
  cfg.mem_fraction = 0.4;
  cfg.patterns.clear();
  cfg.patterns.push_back({.kind = workloads::CpuPattern::kStreaming, .weight = 1.0});
  cfg.patterns.push_back({.kind = workloads::CpuPattern::kPointerChase, .weight = 0.5});
  cfg.patterns.push_back(
      {.kind = workloads::CpuPattern::kZipf, .weight = 0.5, .zipf_s = 0.9});
  return cfg;
}

TEST(Determinism, SyntheticTraceSameSeedSameStream) {
  workloads::SyntheticTrace a(mixed_config(1234)), b(mixed_config(1234));
  std::vector<cpusim::Instr> sa, sb;
  sa = drain(a, 50'000);
  sb = drain(b, 50'000);
  expect_identical(sa, sb);
}

TEST(Determinism, SyntheticTraceResetReplaysStream) {
  workloads::SyntheticTrace trace(mixed_config(77));
  std::vector<cpusim::Instr> first, replay;
  first = drain(trace, 20'000);
  trace.reset();
  replay = drain(trace, 20'000);
  expect_identical(first, replay);
}

TEST(Determinism, SyntheticTraceBatchSizeDoesNotChangeStream) {
  // The stream must be a property of the config, not of how callers batch.
  workloads::SyntheticTrace a(mixed_config(5)), b(mixed_config(5));
  std::vector<cpusim::Instr> small_batches, big_batches;
  std::array<cpusim::Instr, 7> small;
  std::array<cpusim::Instr, 1024> big;
  while (small_batches.size() < 10'000) {
    const std::size_t got = a.next_batch(small);
    ASSERT_GT(got, 0u);
    small_batches.insert(small_batches.end(), small.begin(), small.begin() + got);
  }
  while (big_batches.size() < small_batches.size()) {
    const std::size_t got = b.next_batch(big);
    ASSERT_GT(got, 0u);
    big_batches.insert(big_batches.end(), big.begin(), big.begin() + got);
  }
  small_batches.resize(10'000);
  big_batches.resize(10'000);
  expect_identical(small_batches, big_batches);
}

// ---------------------------------------------------------------------------
// Seed sensitivity of the rack co-simulation (ISSUE 4 satellite): the same
// seed must reproduce byte-identical reports, and seed+1 must diverge —
// guarding the PR 2 id-hash seed derivation against a silent "all seeds
// collapse to one stream" regression.
// ---------------------------------------------------------------------------

cosim::CosimConfig cosim_config(std::uint64_t seed) {
  cosim::CosimConfig cfg;
  cfg.sim_time = 100 * sim::kPsPerMs;
  cfg.seed = seed;
  return cfg;
}

TEST(SeedSensitivity, CosimSameSeedIsBitIdentical) {
  const auto a = cosim::run_rack_cosim({}, disagg::AllocationPolicy::kDisaggregated,
                                       workloads::UsageModel::cori(), cosim_config(7));
  const auto b = cosim::run_rack_cosim({}, disagg::AllocationPolicy::kDisaggregated,
                                       workloads::UsageModel::cori(), cosim_config(7));
  EXPECT_EQ(a.jobs.offered, b.jobs.offered);
  EXPECT_EQ(a.jobs.accepted, b.jobs.accepted);
  EXPECT_EQ(a.flows.flows, b.flows.flows);
  EXPECT_EQ(a.flows.satisfied_fraction, b.flows.satisfied_fraction);
  EXPECT_EQ(a.mean_stretch, b.mean_stretch);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.completed_at, b.completed_at);
}

TEST(SeedSensitivity, CosimSeedPlusOneDiverges) {
  const auto a = cosim::run_rack_cosim({}, disagg::AllocationPolicy::kDisaggregated,
                                       workloads::UsageModel::cori(), cosim_config(7));
  const auto b = cosim::run_rack_cosim({}, disagg::AllocationPolicy::kDisaggregated,
                                       workloads::UsageModel::cori(), cosim_config(8));
  EXPECT_TRUE(a.jobs.offered != b.jobs.offered || a.flows.flows != b.flows.flows ||
              a.energy_joules != b.energy_joules);
}

TEST(Determinism, BenchmarkRegistryTracesAreReproducible) {
  // Every registered paper benchmark must generate reproducibly, since the
  // CPU sweep (Figs 6-8, 11, 12) may run them from a thread pool.
  const auto& benches = workloads::cpu_benchmarks();
  ASSERT_FALSE(benches.empty());
  for (std::size_t i = 0; i < std::min<std::size_t>(benches.size(), 4); ++i) {
    workloads::SyntheticTrace a(benches[i].trace), b(benches[i].trace);
    std::vector<cpusim::Instr> sa, sb;
    sa = drain(a, 10'000);
    sb = drain(b, 10'000);
    expect_identical(sa, sb);
  }
}

}  // namespace
}  // namespace photorack
