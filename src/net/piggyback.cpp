#include "net/piggyback.hpp"

namespace photorack::net {

PiggybackView::PiggybackView(const WavelengthFabric& fabric, sim::TimePs update_interval)
    : fabric_(&fabric),
      interval_(update_interval),
      words_(fabric.bit_words()),
      cols_(fabric.free_cols()) {}

bool PiggybackView::stale_free(int src, int dst) const {
  return (stale_col(dst)[static_cast<std::size_t>(src) / 64] >> (src % 64)) & 1;
}

bool PiggybackView::maybe_refresh(sim::TimePs now) {
  if (now - last_refresh_ < interval_) return false;
  force_refresh(now);
  return true;
}

void PiggybackView::force_refresh(sim::TimePs now) {
  // The fabric keeps its bitsets current, so a broadcast round is a copy.
  cols_ = fabric_->free_cols();
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
