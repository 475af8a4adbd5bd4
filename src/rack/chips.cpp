#include "rack/chips.hpp"

#include <stdexcept>

namespace photorack::rack {

const char* to_string(ChipType t) {
  switch (t) {
    case ChipType::kCpu: return "CPU";
    case ChipType::kGpu: return "GPU";
    case ChipType::kNic: return "NIC";
    case ChipType::kHbm: return "HBM";
    case ChipType::kDdr4: return "DDR4";
  }
  return "?";
}

phot::GBps NodeConfig::chip_escape(ChipType t) const {
  using phot::GBps;
  switch (t) {
    case ChipType::kCpu:
      // Memory channels + PCIe links to the GPUs + NIC links.
      return GBps{ddr4_per_module.value * ddr4_modules +
                  pcie_per_link.value * gpus + nic_per_port.value * nics};
    case ChipType::kGpu:
      // HBM + NVLink peers + PCIe to the CPU.
      return GBps{hbm_per_stack.value + nvlink_per_gpu.value + pcie_per_link.value};
    case ChipType::kNic:
      // Host-side PCIe Gen4 x16 attachment dominates the NIC's escape.
      return pcie_per_link;
    case ChipType::kHbm:
      return hbm_per_stack;
    case ChipType::kDdr4:
      return ddr4_per_module;
  }
  throw std::logic_error("unreachable");
}

ChipSpec NodeConfig::chip_spec(ChipType t) const {
  ChipSpec s;
  s.type = t;
  s.escape_bandwidth = chip_escape(t);
  s.per_node = chips_per_node(t);
  switch (t) {
    case ChipType::kCpu:
      s.power = phot::Watts{250};
      break;
    case ChipType::kGpu:
      s.power = phot::Watts{300};
      break;
    case ChipType::kNic:
      s.power = phot::Watts{25};
      break;
    case ChipType::kHbm:
      s.power = phot::Watts{20};
      break;
    case ChipType::kDdr4:
      // 512 GB/node over two sockets is quoted at ~192 W; per 32 GB module:
      s.power = phot::Watts{12};
      s.max_per_mcm = 27;  // Table III: packaging-limited, not escape-limited
      break;
  }
  return s;
}

int NodeConfig::chips_per_node(ChipType t) const {
  switch (t) {
    case ChipType::kCpu: return cpus;
    case ChipType::kGpu: return gpus;
    case ChipType::kNic: return nics;
    case ChipType::kHbm: return hbm_stacks;
    case ChipType::kDdr4: return ddr4_modules;
  }
  throw std::logic_error("unreachable");
}

}  // namespace photorack::rack
