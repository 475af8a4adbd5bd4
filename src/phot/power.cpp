#include "phot/power.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::phot {

void EnergyTrace::step_to(double seconds, Watts watts) {
  if (started_ && seconds < last_t_)
    throw std::invalid_argument("EnergyTrace: time moved backwards");
  if (!started_) {
    started_ = true;
    t0_ = seconds;
  } else {
    joules_ += last_w_ * (seconds - last_t_);
  }
  last_t_ = seconds;
  last_w_ = watts.value;
  peak_ = std::max(peak_, watts.value);
  ++steps_;
}

Watts EnergyTrace::mean_power() const {
  const double span = seconds();
  return span > 0.0 ? Watts{joules_ / span} : Watts{last_w_};
}

PowerBreakdown photonic_power_overhead(const PhotonicPowerConfig& cfg,
                                       const BaselineRackPower& base) {
  PowerBreakdown out;
  const double total_gbps = static_cast<double>(cfg.mcms) * cfg.wavelengths_per_mcm *
                            cfg.gbps_per_wavelength.value;
  // lasers_always_on means the full escape bandwidth burns transceiver energy
  // regardless of utilization — the paper's pessimistic assumption.  A
  // utilization-gated variant would scale this term down.
  out.transceivers = power_of(cfg.transceiver_pair_energy, Gbps{total_gbps});
  out.switches = cfg.all_switches_power;
  out.total = out.transceivers + out.switches;
  out.overhead_vs_baseline = out.total.value / base.total().value;
  return out;
}

}  // namespace photorack::phot
