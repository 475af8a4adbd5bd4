#pragma once

#include <string>
#include <vector>

#include "gpusim/kernel_model.hpp"

namespace photorack::gpusim {

/// One kernel shape plus how many times the application launches it.  The
/// paper's 24 applications contain 1525 kernel launches total; launches of
/// the same shape share one evaluation.
struct KernelLaunch {
  KernelProfile profile;
  int launches = 1;
};

struct AppProfile {
  std::string name;
  std::string suite;  // "Rodinia" | "Polybench" | "Tango"
  std::vector<KernelLaunch> kernels;

  [[nodiscard]] int total_launches() const;
};

/// Whole-application result (launch-weighted over kernels).
struct AppResult {
  std::string name;
  double time_us = 0.0;
  double predicted_cycles = 0.0;       // the paper compares total predicted cycles
  double l2_miss_rate = 0.0;           // transaction-weighted
  double hbm_txn_per_instr = 0.0;      // HBM transactions / total instructions
  double mem_instr_fraction = 0.0;     // instruction-weighted
  std::vector<KernelResult> kernel_results;  // one per distinct shape
};

/// Evaluate every kernel shape once and combine launch-weighted.
[[nodiscard]] AppResult run_app(const AppProfile& app, const GpuConfig& gpu);

/// Latency-independent skeleton of one application on one L2 geometry: the
/// emergent L2 miss rate per kernel shape.  extra_hbm_ns and
/// hbm_bandwidth_derate enter the kernel roofline only AFTER the L2
/// simulation, so one recorded profile replays exactly for any latency or
/// bandwidth derate — the GPU counterpart of cpusim::MissProfile.
struct AppMissProfile {
  std::string app_name;
  std::uint64_t l2_bytes = 0;
  int l2_ways = 0;
  int sector_bytes = 0;
  std::vector<double> kernel_l2_miss_rates;  // parallel to AppProfile::kernels
};

/// Phase 1: simulate every kernel shape's L2 stream once.
[[nodiscard]] AppMissProfile record_app_profile(const AppProfile& app, const GpuConfig& gpu);

/// Phase 2: rebuild run_app(app, gpu) bit-for-bit from the recorded miss
/// rates in O(kernels).  Throws std::invalid_argument when the profile was
/// recorded for a different app or L2 geometry.
[[nodiscard]] AppResult replay_app(const AppProfile& app, const AppMissProfile& profile,
                                   const GpuConfig& gpu);

}  // namespace photorack::gpusim
