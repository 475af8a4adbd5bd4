#include "core/rack_system.hpp"

#include <stdexcept>

namespace photorack::core {

RackSystem::RackSystem(rack::FabricKind fabric, const rack::RackConfig& rack,
                       const rack::McmConfig& mcm,
                       const phot::PhotonicPowerConfig& power_base)
    : design_(rack::build_rack_design(fabric, rack, mcm)), power_base_(power_base) {}

double RackSystem::direct_pair_bandwidth_gbps() const {
  switch (design_.fabric) {
    case rack::FabricKind::kParallelAwgrs:
      return design_.awgr.direct_pair_bandwidth.value;
    case rack::FabricKind::kSpatialOrWss:
      return design_.spatial.direct_pair_bandwidth.value;
    case rack::FabricKind::kElectronicSwitches:
      return design_.electronic.per_lane.value;
  }
  return 0.0;
}

phot::PowerBreakdown RackSystem::power_overhead() const {
  if (design_.fabric == rack::FabricKind::kElectronicSwitches) return {};
  phot::PhotonicPowerConfig cfg = power_base_;
  cfg.mcms = design_.mcm_plan.total_mcms;
  cfg.wavelengths_per_mcm = design_.mcm_plan.mcm.total_wavelengths();
  cfg.gbps_per_wavelength = design_.mcm_plan.mcm.gbps_per_wavelength;
  return phot::photonic_power_overhead(cfg);
}

net::WavelengthFabric RackSystem::make_fabric() const {
  if (design_.fabric != rack::FabricKind::kParallelAwgrs)
    throw std::logic_error("make_fabric: only the AWGR design has a wavelength fabric");
  return net::WavelengthFabric(design_.mcm_plan.total_mcms, design_.awgr);
}

}  // namespace photorack::core
