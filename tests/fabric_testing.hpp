// Shared fabric geometry for the net, fault and collectives suites.
#pragma once

#include <cstddef>

#include "rack/rack_builder.hpp"

namespace photorack::testutil {

/// The co-sim slice, as RackCosim builds its fabric: `lambdas` fully
/// populated AWGRs of radix `mcms`, one 25 Gb/s wavelength per pair on each.
inline rack::AwgrFabricPlan slice_plan(int mcms, int lambdas = 1) {
  rack::AwgrFabricPlan plan;
  plan.parallel_awgrs = lambdas;
  plan.awgr_radix = mcms;
  plan.port_wavelength_cap = mcms;
  plan.lambdas_per_port.assign(static_cast<std::size_t>(lambdas), mcms);
  plan.full_coverage_awgrs = lambdas;
  plan.min_direct_lambdas_per_pair = lambdas;
  plan.direct_pair_bandwidth = phot::Gbps{25.0 * lambdas};
  return plan;
}

}  // namespace photorack::testutil
