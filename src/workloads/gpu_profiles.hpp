#pragma once

#include <string>
#include <vector>

#include "gpusim/gpu_runner.hpp"

namespace photorack::workloads {

/// The paper's 24 GPU applications (§VI-B3): 11 Rodinia, 10 Polybench and
/// 3 Tango deep networks, totalling 1525 kernel launches, run through the
/// PPT-GPU-substitute model on an A100.  Kernel shapes are reconstructions
/// of each benchmark's published memory behaviour (coalescing, occupancy,
/// working set), standing in for the PPT-GPU traces the paper simulated.
[[nodiscard]] const std::vector<gpusim::AppProfile>& gpu_apps();

[[nodiscard]] std::vector<gpusim::AppProfile> gpu_apps_of_suite(const std::string& suite);

/// Total kernel launches across the registry (the paper quotes 1525).
[[nodiscard]] int total_gpu_kernel_launches();

}  // namespace photorack::workloads
