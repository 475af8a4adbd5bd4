#include "gpusim/gpu_runner.hpp"

#include <gtest/gtest.h>

namespace photorack::gpusim {
namespace {

KernelProfile streaming_kernel() {
  KernelProfile k;
  k.name = "stream";
  k.warp_instructions = 4e6;
  k.mem_fraction = 0.3;
  k.working_set = 512ULL << 20;
  k.pattern = GpuPattern::kStreaming;
  k.sectors_per_access = 4.0;
  k.active_warps_per_sm = 32;
  k.outstanding_per_warp = 8.0;
  return k;
}

KernelProfile gather_kernel() {
  KernelProfile k = streaming_kernel();
  k.name = "gather";
  k.pattern = GpuPattern::kRandom;
  k.sectors_per_access = 12.0;
  k.active_warps_per_sm = 12;
  k.outstanding_per_warp = 1.5;
  return k;
}

KernelProfile resident_kernel() {
  KernelProfile k = streaming_kernel();
  k.name = "resident";
  k.working_set = 8ULL << 20;  // fits the 40 MB L2
  return k;
}

TEST(KernelModel, ResidentWorkingSetHitsL2) {
  const auto r = evaluate_kernel(resident_kernel(), {});
  EXPECT_LT(r.l2_miss_rate, 0.05);
}

TEST(KernelModel, StreamingBeyondL2Misses) {
  const auto r = evaluate_kernel(streaming_kernel(), {});
  EXPECT_GT(r.l2_miss_rate, 0.9);
}

TEST(KernelModel, DeterministicByName) {
  const auto a = evaluate_kernel(streaming_kernel(), {});
  const auto b = evaluate_kernel(streaming_kernel(), {});
  EXPECT_DOUBLE_EQ(a.time_us, b.time_us);
  EXPECT_DOUBLE_EQ(a.l2_miss_rate, b.l2_miss_rate);
}

TEST(KernelModel, RooflineBoundsTheRuntime) {
  // The memory side is a smooth p-norm of the bandwidth and latency terms:
  // never below the hard max, never above their sum; compute is a floor.
  const auto r = evaluate_kernel(streaming_kernel(), {});
  EXPECT_GE(r.time_us, r.compute_time_us);
  EXPECT_GE(r.time_us, r.bandwidth_time_us);
  EXPECT_GE(r.time_us, r.latency_time_us);
  EXPECT_LE(r.time_us,
            std::max(r.compute_time_us, r.bandwidth_time_us + r.latency_time_us) + 1e-9);
}

TEST(KernelModel, LatencyBoundKernelFeelsExtraLatency) {
  GpuConfig base;
  GpuConfig slow;
  slow.extra_hbm_ns = 35.0;
  const auto b = evaluate_kernel(gather_kernel(), base);
  const auto s = evaluate_kernel(gather_kernel(), slow);
  EXPECT_STREQ(b.bound, "latency");
  const double slowdown = s.time_us / b.time_us - 1.0;
  EXPECT_GT(slowdown, 0.05);
  EXPECT_LT(slowdown, 0.15);  // bounded by 35/290
}

TEST(KernelModel, BandwidthBoundKernelHidesExtraLatency) {
  GpuConfig base;
  GpuConfig slow;
  slow.extra_hbm_ns = 35.0;
  const auto b = evaluate_kernel(streaming_kernel(), base);
  const auto s = evaluate_kernel(streaming_kernel(), slow);
  EXPECT_STREQ(b.bound, "bandwidth");
  EXPECT_LT(s.time_us / b.time_us - 1.0, 0.05);
}

TEST(KernelModel, BandwidthDerateSlowsBandwidthBoundKernels) {
  GpuConfig derated;
  derated.hbm_bandwidth_derate = 0.5;
  const auto b = evaluate_kernel(streaming_kernel(), {});
  const auto d = evaluate_kernel(streaming_kernel(), derated);
  EXPECT_NEAR(d.bandwidth_time_us, 2.0 * b.bandwidth_time_us, b.bandwidth_time_us * 0.01);
}

TEST(KernelModel, HbmTransactionsScaleWithMissRate) {
  const auto stream = evaluate_kernel(streaming_kernel(), {});
  const auto resident = evaluate_kernel(resident_kernel(), {});
  EXPECT_GT(stream.hbm_txn_per_instr, 10.0 * resident.hbm_txn_per_instr);
}

TEST(GpuRunner, AppAggregatesLaunchWeighted) {
  AppProfile app;
  app.name = "two-kernel";
  app.kernels.push_back({streaming_kernel(), 3});
  app.kernels.push_back({gather_kernel(), 1});
  EXPECT_EQ(app.total_launches(), 4);
  const auto r = run_app(app, {});
  const auto ks = evaluate_kernel(streaming_kernel(), {});
  const auto kg = evaluate_kernel(gather_kernel(), {});
  EXPECT_NEAR(r.time_us, 3 * ks.time_us + kg.time_us, 1e-6);
}

TEST(GpuRunner, SlowdownIsNonNegativeAndBounded) {
  AppProfile app;
  app.name = "bounded";
  app.kernels.push_back({gather_kernel(), 2});
  GpuConfig slow;
  slow.extra_hbm_ns = 35.0;
  const double s = run_app(app, slow).time_us / run_app(app, {}).time_us - 1.0;
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 35.0 / 290.0 + 0.01);
}

TEST(GpuRunner, EmptyAppThrows) {
  AppProfile app;
  app.name = "empty";
  EXPECT_THROW(run_app(app, {}), std::invalid_argument);
}

TEST(GpuRunner, PredictedCyclesMatchFrequency) {
  AppProfile app;
  app.name = "cycles";
  app.kernels.push_back({resident_kernel(), 1});
  GpuConfig gpu;
  const auto r = run_app(app, gpu);
  EXPECT_NEAR(r.predicted_cycles, r.time_us * 1e3 * gpu.freq_ghz, 1e-6);
}

}  // namespace
}  // namespace photorack::gpusim
