#include "rack/rack_builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::rack {

const sim::EnumCodec<FabricKind>& fabric_kind_codec() {
  static const sim::EnumCodec<FabricKind> codec(
      "fabric", {{"awgr", FabricKind::kParallelAwgrs},
                 {"wss", FabricKind::kSpatialOrWss},
                 {"electronic", FabricKind::kElectronicSwitches}});
  return codec;
}

const char* to_string(FabricKind kind) { return fabric_kind_codec().name(kind).c_str(); }

std::vector<int> distribute_wavelengths(int total_lambdas, int port_cap) {
  if (total_lambdas <= 0 || port_cap <= 0)
    throw std::invalid_argument("distribute_wavelengths: non-positive input");
  std::vector<int> ports;
  int remaining = total_lambdas;
  while (remaining > 0) {
    const int take = std::min(remaining, port_cap);
    ports.push_back(take);
    remaining -= take;
  }
  return ports;
}

namespace {

AwgrFabricPlan build_awgr_plan(const McmPlan& mcm_plan) {
  const auto& cfg = phot::table4_study_configs()[0];  // cascaded AWGR row
  AwgrFabricPlan plan;
  plan.awgr_radix = cfg.radix;
  plan.port_wavelength_cap = cfg.wavelengths_per_port;
  if (mcm_plan.total_mcms > cfg.radix)
    throw std::runtime_error("rack has more MCMs than AWGR ports");

  plan.lambdas_per_port =
      distribute_wavelengths(mcm_plan.mcm.total_wavelengths(), cfg.wavelengths_per_port);
  plan.parallel_awgrs = static_cast<int>(plan.lambdas_per_port.size());

  // An AWGR port reaching all other MCMs needs one wavelength per possible
  // destination: ports carrying >= #MCMs wavelengths give all-pairs direct
  // coverage; smaller ports cover only a subset of destinations.
  for (int w : plan.lambdas_per_port)
    if (w >= mcm_plan.total_mcms) ++plan.full_coverage_awgrs;
  plan.min_direct_lambdas_per_pair = plan.full_coverage_awgrs;
  plan.direct_pair_bandwidth =
      phot::Gbps{plan.min_direct_lambdas_per_pair * cfg.gbps_per_wavelength.value};
  return plan;
}

SpatialFabricPlan build_spatial_plan(const McmPlan& mcm_plan) {
  const auto cfg = phot::merged_spatial_wss_config();
  SpatialFabricPlan plan;
  plan.radix = cfg.radix;
  plan.wavelengths_per_port = cfg.wavelengths_per_port;
  plan.fibers_per_connection =
      cfg.wavelengths_per_port / mcm_plan.mcm.wavelengths_per_fiber;  // 256/64 = 4
  plan.max_connections_per_mcm = mcm_plan.mcm.fibers / plan.fibers_per_connection;  // 8
  plan.stagger = 32;  // §V-B: switch I starts at MCM index 32*I
  const int mcms = mcm_plan.total_mcms;
  // Enough staggered windows that every MCM falls inside ~8 of them:
  // ceil(mcms / stagger) = 11 switches for 350 MCMs.
  plan.switches = (mcms + plan.stagger - 1) / plan.stagger;

  plan.connections.assign(mcms, {});
  for (int sw = 0; sw < plan.switches; ++sw) {
    const int start = (plan.stagger * sw) % mcms;
    for (int j = 0; j < plan.radix && j < mcms; ++j) {
      const int m = (start + j) % mcms;
      plan.connections[m].push_back(sw);
    }
  }
  // Trim over-covered MCMs to the fiber budget.  Drop the connection where
  // the MCM sits deepest into the window (it contributes least to pairwise
  // overlap with distant MCMs); deterministic: highest in-window offset
  // first.
  for (int m = 0; m < mcms; ++m) {
    auto& conns = plan.connections[m];
    while (static_cast<int>(conns.size()) > plan.max_connections_per_mcm) {
      auto deepest = std::max_element(conns.begin(), conns.end(), [&](int a, int b) {
        const int offa = (m - plan.stagger * a % mcms + mcms) % mcms;
        const int offb = (m - plan.stagger * b % mcms + mcms) % mcms;
        return offa < offb;
      });
      conns.erase(deepest);
    }
  }

  // Pairwise direct-path statistics.
  long long sum = 0, pairs = 0;
  int min_paths = plan.switches;
  std::vector<std::uint64_t> masks(mcms, 0);
  for (int m = 0; m < mcms; ++m)
    for (int sw : plan.connections[m]) masks[m] |= (1ULL << sw);
  for (int a = 0; a < mcms; ++a) {
    for (int b = a + 1; b < mcms; ++b) {
      const int overlap = __builtin_popcountll(masks[a] & masks[b]);
      sum += overlap;
      ++pairs;
      min_paths = std::min(min_paths, overlap);
    }
  }
  plan.min_direct_paths_per_pair = min_paths;
  plan.avg_direct_paths_per_pair = pairs ? static_cast<double>(sum) / pairs : 0.0;
  plan.direct_pair_bandwidth = phot::Gbps{
      static_cast<double>(min_paths) * cfg.wavelengths_per_port * cfg.gbps_per_wavelength.value};
  return plan;
}

}  // namespace

RackDesign build_rack_design(FabricKind fabric, const RackConfig& rack, const McmConfig& mcm,
                             phot::Meters reach) {
  RackDesign design;
  design.rack = rack;
  design.mcm_plan = pack_rack(rack, mcm);
  design.fabric = fabric;

  const phot::Nanoseconds photonic = phot::PropagationModel{}.added_latency(reach);
  switch (fabric) {
    case FabricKind::kParallelAwgrs:
      design.awgr = build_awgr_plan(design.mcm_plan);
      design.added_latency = photonic;  // no switch traversal latency (passive)
      break;
    case FabricKind::kSpatialOrWss:
      design.spatial = build_spatial_plan(design.mcm_plan);
      // All-optical path once configured: same 35 ns; the cost is the
      // centralized scheduler and reconfiguration time (§VI-A1), modeled in
      // net::CentralizedScheduler.
      design.added_latency = photonic;
      break;
    case FabricKind::kElectronicSwitches:
      design.electronic = ElectronicFabricConfig{};
      design.added_latency = phot::Nanoseconds{
          photonic.value + design.electronic.added_switch_latency().value};
      break;
  }
  return design;
}

}  // namespace photorack::rack
