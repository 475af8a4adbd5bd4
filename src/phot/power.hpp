#pragma once

#include <cstddef>

#include "phot/units.hpp"

namespace photorack::phot {

/// Rack-level photonic power model (§VI-C).  The paper's worked example:
/// 350 MCMs x 2048 escape wavelengths x 25 Gb/s, transceiver pairs at
/// ~0.5 pJ/bit including laser power, plus at most 1 kW for all parallel
/// switches => ~11 kW total, about 5% of the rack's compute power.
struct PhotonicPowerConfig {
  int mcms = 350;
  int wavelengths_per_mcm = 2048;
  Gbps gbps_per_wavelength{25};
  // Comb-driven transceiver pair, laser included ([125], [126]).  0.55
  // reproduces the paper's ~11 kW total ("approximately 0.5 pJ/bit").
  PjPerBit transceiver_pair_energy{0.55};
  Watts all_switches_power{1000};
  bool lasers_always_on = true;  // paper's pessimistic assumption
};

struct PowerBreakdown {
  Watts transceivers;
  Watts switches;
  Watts total;
  double overhead_vs_baseline = 0.0;  // fraction of the baseline rack power
};

/// Baseline (non-photonic) rack power, from the paper's per-part numbers:
/// A100 ~300 W, Milan CPU ~250 W, 512 GB DDR4 per node ~192 W.
struct BaselineRackPower {
  int nodes = 128;
  Watts cpu_per_node{250};
  int gpus_per_node = 4;
  Watts gpu_each{300};
  Watts memory_per_node{192};

  [[nodiscard]] Watts total() const {
    const double per_node =
        cpu_per_node.value + gpus_per_node * gpu_each.value + memory_per_node.value;
    return Watts{per_node * nodes};
  }
};

[[nodiscard]] PowerBreakdown photonic_power_overhead(const PhotonicPowerConfig& cfg = {},
                                                     const BaselineRackPower& base = {});

/// Time-weighted rack energy integrator over a piecewise-constant power
/// profile.  Callers report each power *change point* via step_to(t, W):
/// energy accrues at the previous level from the previous change point to t,
/// then the level becomes W.  The first call only sets the origin.  Used by
/// the rack co-simulation to turn utilization-driven power levels into an
/// energy trace (§VI-C extended from static overhead to a live job stream).
class EnergyTrace {
 public:
  /// Record that rack power changed to `watts` at `seconds` (monotone
  /// non-decreasing; going backwards throws std::invalid_argument).
  void step_to(double seconds, Watts watts);

  [[nodiscard]] double joules() const { return joules_; }
  /// Simulated span covered so far (last change point minus origin).
  [[nodiscard]] double seconds() const { return started_ ? last_t_ - t0_ : 0.0; }
  /// joules()/seconds(); the last recorded level for a zero-length trace.
  [[nodiscard]] Watts mean_power() const;
  /// Highest power level ever recorded (zero-length levels included).
  [[nodiscard]] Watts peak_power() const { return Watts{peak_}; }
  [[nodiscard]] std::size_t steps() const { return steps_; }

 private:
  bool started_ = false;
  double t0_ = 0.0;
  double last_t_ = 0.0;
  double last_w_ = 0.0;
  double joules_ = 0.0;
  double peak_ = 0.0;
  std::size_t steps_ = 0;
};

}  // namespace photorack::phot
