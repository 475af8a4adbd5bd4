#include "gpusim/gpu_runner.hpp"

#include <stdexcept>
#include <utility>

namespace photorack::gpusim {

int AppProfile::total_launches() const {
  int n = 0;
  for (const auto& k : kernels) n += k.launches;
  return n;
}

namespace {

/// Shared launch-weighted aggregation: `kernel_eval(launch, index)` supplies
/// the per-shape KernelResult (full evaluation for run_app, miss-rate
/// replay for replay_app) and everything downstream is identical.
template <typename KernelEval>
AppResult run_app_impl(const AppProfile& app, const GpuConfig& gpu,
                       KernelEval&& kernel_eval) {
  if (app.kernels.empty()) throw std::invalid_argument("run_app: app has no kernels");
  AppResult out;
  out.name = app.name;

  double total_instrs = 0.0, total_l2_txn = 0.0, total_hbm_txn = 0.0, total_mem_instr = 0.0;
  for (std::size_t i = 0; i < app.kernels.size(); ++i) {
    const KernelLaunch& launch = app.kernels[i];
    KernelResult kr = kernel_eval(launch, i);
    const double n = launch.launches;
    out.time_us += kr.time_us * n;

    const double instrs = launch.profile.warp_instructions * n;
    const double l2_txn =
        launch.profile.warp_instructions * launch.profile.mem_fraction *
        launch.profile.sectors_per_access * n;
    total_instrs += instrs;
    total_mem_instr += instrs * launch.profile.mem_fraction;
    total_l2_txn += l2_txn;
    total_hbm_txn += l2_txn * kr.l2_miss_rate;
    out.kernel_results.push_back(std::move(kr));
  }
  out.predicted_cycles = out.time_us * 1e3 * gpu.freq_ghz;
  out.l2_miss_rate = total_l2_txn > 0 ? total_hbm_txn / total_l2_txn : 0.0;
  out.hbm_txn_per_instr = total_instrs > 0 ? total_hbm_txn / total_instrs : 0.0;
  out.mem_instr_fraction = total_instrs > 0 ? total_mem_instr / total_instrs : 0.0;
  return out;
}

}  // namespace

AppResult run_app(const AppProfile& app, const GpuConfig& gpu) {
  return run_app_impl(app, gpu, [&](const KernelLaunch& launch, std::size_t) {
    return evaluate_kernel(launch.profile, gpu);
  });
}

AppMissProfile record_app_profile(const AppProfile& app, const GpuConfig& gpu) {
  if (app.kernels.empty())
    throw std::invalid_argument("record_app_profile: app has no kernels");
  AppMissProfile profile;
  profile.app_name = app.name;
  profile.l2_bytes = gpu.l2_bytes;
  profile.l2_ways = gpu.l2_ways;
  profile.sector_bytes = gpu.sector_bytes;
  profile.kernel_l2_miss_rates.reserve(app.kernels.size());
  for (const auto& launch : app.kernels)
    profile.kernel_l2_miss_rates.push_back(simulate_l2_miss_rate(launch.profile, gpu));
  return profile;
}

AppResult replay_app(const AppProfile& app, const AppMissProfile& profile,
                     const GpuConfig& gpu) {
  if (profile.app_name != app.name ||
      profile.kernel_l2_miss_rates.size() != app.kernels.size())
    throw std::invalid_argument("replay_app: profile was recorded for a different app");
  if (profile.l2_bytes != gpu.l2_bytes || profile.l2_ways != gpu.l2_ways ||
      profile.sector_bytes != gpu.sector_bytes)
    throw std::invalid_argument(
        "replay_app: profile was recorded for a different L2 geometry");
  return run_app_impl(app, gpu, [&](const KernelLaunch& launch, std::size_t i) {
    return evaluate_kernel_with_miss_rate(launch.profile, gpu,
                                          profile.kernel_l2_miss_rates[i]);
  });
}

}  // namespace photorack::gpusim
