#pragma once

#include <cstdint>
#include <vector>

#include "phot/links.hpp"
#include "phot/switches.hpp"
#include "rack/mcm.hpp"
#include "sim/enum_codec.hpp"

namespace photorack::rack {

/// How the disaggregated rack's MCMs are interconnected.
enum class FabricKind { kParallelAwgrs, kSpatialOrWss, kElectronicSwitches };

/// Canonical CLI/campaign-axis/registry spellings: "awgr" | "wss" |
/// "electronic".  The one definition shared by campaigns and bindings.
[[nodiscard]] const sim::EnumCodec<FabricKind>& fabric_kind_codec();
[[nodiscard]] const char* to_string(FabricKind kind);

/// Plan for case (A) of §V-B / Fig 5: parallel AWGRs.  Each MCM splits its
/// fibers across `parallel_awgrs` AWGR ports, respecting the per-port
/// wavelength cap.  AWGRs whose ports carry at least as many wavelengths as
/// there are MCMs give every MCM pair one direct wavelength.
struct AwgrFabricPlan {
  int parallel_awgrs = 0;
  int awgr_radix = 0;                // ports per AWGR (>= #MCMs)
  int port_wavelength_cap = 0;       // 370 for the paper's AWGR
  std::vector<int> lambdas_per_port; // per parallel AWGR, per-MCM wavelengths
  int full_coverage_awgrs = 0;       // AWGRs providing all-pairs coverage
  int min_direct_lambdas_per_pair = 0;
  phot::Gbps direct_pair_bandwidth{0};
};

/// Plan for case (B) of §V-B: 256x256 spatial or wave-selective switches in
/// a staggered arrangement; switch I covers a window of `radix` consecutive
/// MCM indices starting at `stagger * I` (mod #MCMs).
struct SpatialFabricPlan {
  int switches = 0;
  int radix = 0;
  int wavelengths_per_port = 0;
  int fibers_per_connection = 0;  // MCM fibers consumed per switch port
  int max_connections_per_mcm = 0;
  int stagger = 0;
  /// connections[i] lists the switch indices MCM i attaches to (trimmed to
  /// the fiber budget).
  std::vector<std::vector<int>> connections;
  int min_direct_paths_per_pair = 0;
  double avg_direct_paths_per_pair = 0.0;
  phot::Gbps direct_pair_bandwidth{0};  // min paths x port bandwidth
};

/// Electronic-switch alternative of §VI-D: a two-level tree (four hops) of
/// PCIe-Gen5-class switches.  85 ns total added latency = the common 35 ns
/// (FEC + propagation, §VI-B) + hops x per-hop latency.
struct ElectronicFabricConfig {
  int hops = 4;
  phot::Nanoseconds per_hop{12.5};
  phot::Gbps per_lane{32};  // PCIe Gen5 lane, one lane per endpoint
  [[nodiscard]] phot::Nanoseconds added_switch_latency() const {
    return phot::Nanoseconds{hops * per_hop.value};
  }
};

/// A complete disaggregated rack design.
struct RackDesign {
  RackConfig rack;
  McmPlan mcm_plan;
  FabricKind fabric = FabricKind::kParallelAwgrs;
  AwgrFabricPlan awgr;          // valid when fabric == kParallelAwgrs
  SpatialFabricPlan spatial;    // valid when fabric == kSpatialOrWss
  ElectronicFabricConfig electronic;  // valid when fabric == kElectronicSwitches

  /// Added latency between an MCM pair (LLC <-> disaggregated memory), the
  /// quantity driving §VI-B: 35 ns photonic, 85 ns electronic.
  phot::Nanoseconds added_latency{0};
};

/// Build the paper's design for the chosen fabric.  `reach` is the
/// worst-case intra-rack fiber run (4 m round trip for a 2 m rack).
[[nodiscard]] RackDesign build_rack_design(
    FabricKind fabric, const RackConfig& rack = {}, const McmConfig& mcm = {},
    phot::Meters reach = phot::Meters{4.0});

/// Distribute `total_lambdas` MCM escape wavelengths over parallel AWGR
/// ports of capacity `port_cap` (greedy fill).  Exposed for tests.
[[nodiscard]] std::vector<int> distribute_wavelengths(int total_lambdas, int port_cap);

}  // namespace photorack::rack
