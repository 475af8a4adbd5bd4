// Miss-profile record/replay engine: replay_profile(p, extra) must be
// BIT-IDENTICAL to a from-scratch run_simulation at that extra_ns — that
// equivalence is what lets the fig6/fig8 campaigns trade K simulations for
// 1 recording + K replays without moving a single output byte.  Pinned here
// across all three core kinds, dependent/independent mixes, prefetch on/off,
// a dense 16-point latency grid (including non-integral extras that force
// the generic replay path), zero-miss workloads, and the in-order O(1) fast
// path vs the generic walk.
#include "cpusim/miss_profile.hpp"

#include <gtest/gtest.h>

#include "cpusim/runner.hpp"
#include "workloads/generators.hpp"

namespace photorack::cpusim {
namespace {

// EXPECT_EQ on doubles is exact (bitwise for non-NaN values): intentional.
void expect_bit_identical(const SimResult& a, const SimResult& b, const char* what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.time_ns, b.time_ns) << what;
  EXPECT_EQ(a.ipc, b.ipc) << what;
  EXPECT_EQ(a.llc_miss_rate, b.llc_miss_rate) << what;
  EXPECT_EQ(a.llc_mpki, b.llc_mpki) << what;
  EXPECT_EQ(a.llc_miss_stall_cycles, b.llc_miss_stall_cycles) << what;
  EXPECT_EQ(a.mem_op_fraction, b.mem_op_fraction) << what;
  EXPECT_EQ(a.dram_row_hit_rate, b.dram_row_hit_rate) << what;
}

// The 16-point grid the tentpole targets: paper points (25/30/35/85) plus a
// dense fill-in, including non-integral extras that defeat the in-order
// integer fast path and exercise the generic per-miss walk.
const double kGrid[16] = {0.0,  5.0,  10.0, 12.25, 17.5, 25.0, 30.0, 33.7,
                          35.0, 42.0, 50.0, 60.0,  70.0, 85.0, 92.5, 100.0};

SimConfig small_sim(CoreKind kind) {
  SimConfig cfg;
  cfg.core.kind = kind;
  cfg.warmup_instructions = 20'000;
  cfg.measured_instructions = 50'000;
  return cfg;
}

workloads::TraceConfig thrashing_trace() {
  workloads::TraceConfig cfg;
  cfg.working_set = 128ULL << 20;  // 4x the LLC: heavy miss traffic
  cfg.mem_fraction = 0.3;
  cfg.patterns = {{}};  // streaming
  cfg.seed = 7;
  return cfg;
}

workloads::TraceConfig mixed_dependence_trace() {
  workloads::TraceConfig cfg;
  cfg.working_set = 96ULL << 20;
  cfg.mem_fraction = 0.35;
  workloads::PatternSpec stream;
  stream.kind = workloads::CpuPattern::kStreaming;
  stream.weight = 1.0;
  workloads::PatternSpec chase;
  chase.kind = workloads::CpuPattern::kPointerChase;
  chase.weight = 1.0;
  workloads::PatternSpec random;
  random.kind = workloads::CpuPattern::kRandom;
  random.weight = 0.5;
  random.dependent_fraction = 0.3;  // partially dependent random gathers
  cfg.patterns = {stream, chase, random};
  cfg.seed = 11;
  return cfg;
}

void expect_replay_matches_simulation(const workloads::TraceConfig& trace_cfg,
                                      SimConfig cfg, const char* what) {
  cfg.dram.extra_ns = 0.0;
  workloads::SyntheticTrace record_trace(trace_cfg);
  const MissProfile profile = record_miss_profile(record_trace, cfg);

  for (const double extra : kGrid) {
    SimConfig point = cfg;
    point.dram.extra_ns = extra;
    workloads::SyntheticTrace trace(trace_cfg);
    const SimResult scratch = run_simulation(trace, point);
    const SimResult replayed = replay_profile(profile, extra);
    expect_bit_identical(scratch, replayed, what);
    // The generic walk must agree with whatever path kAuto picked.
    expect_bit_identical(replay_profile(profile, extra, ReplayMode::kGeneric), replayed,
                         what);
  }
}

TEST(MissProfile, InOrderReplayIsBitIdenticalAcrossTheGrid) {
  expect_replay_matches_simulation(thrashing_trace(), small_sim(CoreKind::kInOrder),
                                   "inorder/streaming");
}

TEST(MissProfile, OutOfOrderReplayIsBitIdenticalAcrossTheGrid) {
  expect_replay_matches_simulation(thrashing_trace(), small_sim(CoreKind::kOutOfOrder),
                                   "ooo/streaming");
}

TEST(MissProfile, AcceleratorReplayIsBitIdenticalAcrossTheGrid) {
  expect_replay_matches_simulation(thrashing_trace(),
                                   small_sim(CoreKind::kDecoupledAccelerator),
                                   "accel/streaming");
}

TEST(MissProfile, DependentIndependentMixReplaysExactly) {
  // Pointer chases serialize OOO misses (full dc) while streaming misses
  // overlap (dc/mlp): both replay formulas in one profile.
  for (const CoreKind kind : {CoreKind::kInOrder, CoreKind::kOutOfOrder,
                              CoreKind::kDecoupledAccelerator}) {
    expect_replay_matches_simulation(mixed_dependence_trace(), small_sim(kind),
                                     "mixed-dependence");
  }
}

TEST(MissProfile, PrefetchOnAndOffReplayExactly) {
  for (const bool enabled : {false, true}) {
    SimConfig cfg = small_sim(CoreKind::kOutOfOrder);
    cfg.core.prefetch.enabled = enabled;
    expect_replay_matches_simulation(thrashing_trace(), cfg, "prefetch");
    SimConfig io = small_sim(CoreKind::kInOrder);
    io.core.prefetch.enabled = enabled;
    expect_replay_matches_simulation(thrashing_trace(), io, "prefetch-inorder");
  }
}

TEST(MissProfile, CacheResidentWorkloadHasEmptyProfileAndExactReplay) {
  workloads::TraceConfig trace_cfg;
  trace_cfg.working_set = 1 << 20;  // fits in the LLC
  trace_cfg.seed = 3;
  const SimConfig cfg = small_sim(CoreKind::kInOrder);
  workloads::SyntheticTrace record_trace(trace_cfg);
  const MissProfile profile = record_miss_profile(record_trace, cfg);
  EXPECT_EQ(profile.miss_count(), profile.llc_misses);
  expect_replay_matches_simulation(trace_cfg, cfg, "cache-resident");
}

TEST(MissProfile, RecordingAtNonZeroExtraReplaysDownToZero) {
  // Latency-independence cuts both ways: a profile recorded at +35 ns must
  // reproduce the extra=0 baseline too.
  SimConfig cfg = small_sim(CoreKind::kOutOfOrder);
  cfg.dram.extra_ns = 35.0;
  const workloads::TraceConfig trace_cfg = thrashing_trace();
  workloads::SyntheticTrace record_trace(trace_cfg);
  const MissProfile profile = record_miss_profile(record_trace, cfg);
  EXPECT_EQ(profile.dram.extra_ns, 35.0);

  for (const double extra : {0.0, 35.0, 85.0}) {
    SimConfig point = cfg;
    point.dram.extra_ns = extra;
    workloads::SyntheticTrace trace(trace_cfg);
    expect_bit_identical(run_simulation(trace, point), replay_profile(profile, extra),
                         "recorded-at-35");
  }
}

TEST(MissProfile, ProfileCountersMatchTheRecordedRun) {
  const workloads::TraceConfig trace_cfg = thrashing_trace();
  const SimConfig cfg = small_sim(CoreKind::kInOrder);
  workloads::SyntheticTrace trace(trace_cfg);
  const MissProfile profile = record_miss_profile(trace, cfg);
  EXPECT_EQ(profile.instructions, cfg.measured_instructions);
  EXPECT_GT(profile.llc_misses, 0u);
  EXPECT_EQ(profile.miss_count(), profile.llc_misses);  // every miss is timed
  EXPECT_LE(profile.row_hit_miss_count, profile.llc_misses);
  EXPECT_GT(profile.base_cycles_total, 0.0);
}

TEST(MissProfile, InOrderFastPathEngagesAndMatchesGenericWalk) {
  // Integer extras keep every in-order cycle term integral, so the O(1)
  // aggregated path must engage and agree with the per-miss walk bit for
  // bit; fractional extras must take the generic walk and still agree.
  const workloads::TraceConfig trace_cfg = thrashing_trace();
  const SimConfig cfg = small_sim(CoreKind::kInOrder);
  workloads::SyntheticTrace trace(trace_cfg);
  const MissProfile profile = record_miss_profile(trace, cfg);
  ASSERT_GT(profile.miss_count(), 0u);
  for (const double extra : kGrid) {
    expect_bit_identical(replay_profile(profile, extra, ReplayMode::kAuto),
                         replay_profile(profile, extra, ReplayMode::kGeneric),
                         "fast-vs-generic");
  }
}

}  // namespace
}  // namespace photorack::cpusim
