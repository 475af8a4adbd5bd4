#pragma once

#include <memory>

#include "net/fabric.hpp"
#include "phot/power.hpp"
#include "rack/rack_builder.hpp"

namespace photorack::core {

/// Facade over the full stack: build a disaggregated rack for a fabric
/// choice and query the quantities the paper's evaluation cares about —
/// added memory latency, per-pair bandwidth, power overhead — plus a live
/// wavelength fabric for routing experiments.  This is the quickstart
/// entry point.
class RackSystem {
 public:
  explicit RackSystem(rack::FabricKind fabric = rack::FabricKind::kParallelAwgrs,
                      const rack::RackConfig& rack = {}, const rack::McmConfig& mcm = {},
                      const phot::PhotonicPowerConfig& power_base = {});

  [[nodiscard]] const rack::RackDesign& design() const { return design_; }

  /// Added LLC<->memory latency for this fabric (35 ns photonic / 85 ns
  /// electronic).
  [[nodiscard]] double added_memory_latency_ns() const {
    return design_.added_latency.value;
  }

  /// Direct (no indirect routing) MCM-pair bandwidth in Gb/s.
  [[nodiscard]] double direct_pair_bandwidth_gbps() const;

  /// Photonic power overhead for this rack (§VI-C); zero breakdown for the
  /// electronic fabric.
  [[nodiscard]] phot::PowerBreakdown power_overhead() const;

  /// Total MCMs in the rack (Table III bottom line).
  [[nodiscard]] int total_mcms() const { return design_.mcm_plan.total_mcms; }

  /// A fresh wavelength fabric for routing experiments (AWGR design only;
  /// throws for other fabrics).
  [[nodiscard]] net::WavelengthFabric make_fabric() const;

 private:
  rack::RackDesign design_;
  /// Non-geometry power assumptions (transceiver pJ/bit, switch budget);
  /// the geometry fields are overridden from the built design.
  phot::PhotonicPowerConfig power_base_;
};

}  // namespace photorack::core
