#include "net/piggyback.hpp"

namespace photorack::net {

PiggybackView::PiggybackView(const WavelengthFabric& fabric, sim::TimePs update_interval)
    : fabric_(&fabric), interval_(update_interval) {
  snapshot_.assign(static_cast<std::size_t>(fabric.mcms()) * fabric.mcms(), 0.0);
  take_snapshot();
}

void PiggybackView::take_snapshot() {
  const int n = fabric_->mcms();
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      snapshot_[static_cast<std::size_t>(s) * n + d] = fabric_->free_direct(s, d);
}

double PiggybackView::stale_free_direct(int src, int dst) const {
  return snapshot_[static_cast<std::size_t>(src) * fabric_->mcms() + dst];
}

bool PiggybackView::maybe_refresh(sim::TimePs now) {
  if (now - last_refresh_ < interval_) return false;
  force_refresh(now);
  return true;
}

void PiggybackView::force_refresh(sim::TimePs now) {
  take_snapshot();
  last_refresh_ = now;
  ++rounds_;
}

double PiggybackView::bytes_per_source_per_round() const {
  // One 8-bit occupancy field per local wavelength on each parallel AWGR
  // port (the paper's example: 256 wavelengths x 8 bits = 256 bytes).
  // Each port carries up to the AWGR radix wavelengths; use mcms as the
  // reachable-destination count per AWGR.
  return static_cast<double>(fabric_->mcms()) * fabric_->parallel_awgrs();  // 1 B per lambda
}

double PiggybackView::control_gbps(double rounds_per_second) const {
  const double bytes =
      bytes_per_source_per_round() * fabric_->mcms() * rounds_per_second;
  return bytes * 8.0 / 1e9;
}

}  // namespace photorack::net
